"""PulsePlane tests: the series store, the lazy lattice sampler, SLO
burn-rate evaluation, the PulseMonitor invariants, spec plumbing, and
the zero-cost contract (identical event digests with sampling on/off)."""

import dataclasses
import sys

import pytest

from repro.check import PulseMonitor, SanitizerSession
from repro.obs import (
    EMPTY_QUANTILE,
    PulsePlane,
    SeriesStore,
    SloEvaluator,
    no_data,
    parse_slo,
)
from repro.obs.metrics import DEFAULT_WINDOW_US, DEFAULT_WINDOWS
from repro.obs.pulse import _peak_probe, counter_rate_probe
from repro.scenario import (
    AppSpec,
    ClientSpec,
    ObsSpec,
    PulseSpec,
    RackSpec,
    RebalanceSpec,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    SLOSpec,
    SteeringSpec,
    build,
    from_json,
    load_shipped,
    run_scenario,
    to_json,
)
from repro.sim import Simulator, Timeout, spawn


# -- series store -------------------------------------------------------------

def test_store_ring_retention_keeps_newest_points():
    store = SeriesStore(retention=4)
    for i in range(10):
        store.record(float(i), "u", float(i) / 2.0)
    series = store.get("u")
    assert len(series) == 4
    assert series.points() == [(6.0, 3.0), (7.0, 3.5), (8.0, 4.0),
                               (9.0, 4.5)]


def test_store_fingerprint_covers_exactly_the_retained_points():
    def fill(values):
        store = SeriesStore()
        for t, v in values:
            store.record(t, "a", v)
        store.record(0.0, "b", 1.0)
        return store
    base = [(0.0, 1.0), (1.0, 2.0)]
    assert fill(base).fingerprint() == fill(base).fingerprint()
    assert fill(base).fingerprint() != fill([(0.0, 1.0),
                                            (1.0, 2.5)]).fingerprint()
    # the NaN sentinel digests stably too
    assert (fill(base + [(2.0, EMPTY_QUANTILE)]).fingerprint()
            == fill(base + [(2.0, EMPTY_QUANTILE)]).fingerprint())


def test_store_csv_and_chrome_exports():
    store = SeriesStore()
    store.record(1.0, "u", 0.5)
    store.record(2.0, "u", EMPTY_QUANTILE)
    text = store.to_csv()
    assert text.splitlines()[0] == "series,t_us,value"
    assert "u,1.0,0.5" in text
    doc = store.to_chrome()
    counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
    # the no-data sentinel is omitted: Perfetto draws a gap, not a zero
    assert len(counters) == 1 and counters[0]["args"]["value"] == 0.5


# -- probes -------------------------------------------------------------------

class _FakeTracker:
    def __init__(self):
        self.busy_time = 0.0


def test_peak_probe_reports_the_hottest_tracker():
    cores = [_FakeTracker() for _ in range(4)]
    probe = _peak_probe(cores)
    cores[2].busy_time = 80.0          # one pinned-hot core
    cores[0].busy_time = 10.0
    assert probe(100.0) == pytest.approx(0.8)
    # next period: only the cool core accumulates
    cores[0].busy_time = 30.0
    assert probe(200.0) == pytest.approx(0.2)
    # clamped to [0, 1] even if a tracker over-accounts
    cores[1].busy_time += 500.0
    assert probe(300.0) == 1.0


def test_counter_rate_probe_differences_a_cumulative_counter():
    total = [0]
    probe = counter_rate_probe(lambda: total[0])
    total[0] = 50
    assert probe(1_000.0) == pytest.approx(50 / 1_000.0 * 1e6)
    total[0] = 50                      # idle period: rate drops to zero
    assert probe(2_000.0) == 0.0


# -- the lazy sampler ---------------------------------------------------------

def test_sampler_stamps_boundaries_and_jumps_idle_gaps():
    sim = Simulator()
    pulse = PulsePlane(sim, period_us=100.0)
    pulse.add_probe("const", lambda t: 7.0)

    def driver():
        yield Timeout(50.0)            # before the first boundary
        yield Timeout(200.0)           # t=250: one sample, stamped @200
        yield Timeout(750.0)           # t=1000: gap jumped in one step

    spawn(sim, driver(), name="driver")
    sim.run()
    assert pulse.samples == 2
    assert pulse.store.get("const").points() == [(200.0, 7.0),
                                                 (1000.0, 7.0)]
    assert pulse.first_sample_us == 200.0
    assert pulse.last_sample_us == 1000.0
    assert pulse.passive_schedules == 0


def test_sample_reads_state_before_the_event_crossing_the_boundary():
    def samples(neutral):
        sim = Simulator()
        pulse = PulsePlane(sim, period_us=100.0)
        state = {"x": 0.0}
        pulse.add_probe("x", lambda t: state["x"])
        for when, value in ((50.0, 1.0), (100.0, 2.0), (250.0, 3.0)):
            sim.post_at(when, state.__setitem__, "x", value)
        if neutral:
            # state-neutral events just after each boundary
            sim.post_at(100.5, lambda: None)
            sim.post_at(200.25, lambda: None)
        sim.run(until=400.0)
        return pulse.store.get("x").points()

    # the event at b=100 itself is not yet visible in the @100 sample
    assert samples(neutral=False) == [(100.0, 1.0), (200.0, 2.0),
                                      (400.0, 3.0)]
    assert samples(neutral=True) == samples(neutral=False)


def test_pulse_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        PulsePlane(Simulator(), period_us=0.0)


def test_watch_service_sizes_the_backing_histogram_window():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    pulse.watch_service("rkv", pct=99.0, window_us=400.0)
    hist = pulse.latency.get("rkv")
    assert hist is not None and hist.name == "svc.rkv.latency_us"
    assert hist.window_us == 400.0 and hist.max_windows == 2


def test_pulse_latency_window_is_set_at_declaration():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    pulse.watch_service("rkv", pct=99.0, window_us=2_000.0)
    hist = pulse.latency["rkv"]
    # later declarations (another quantile, a tenant view) share the
    # histogram; they must not resize an already-declared window
    pulse.watch_service("rkv", pct=50.0, window_us=500.0)
    pulse.watch_tenant("gold", services=("rkv",))
    assert pulse.latency["rkv"] is hist and hist.window_us == 2_000.0
    # a service watched with no SLO window gets the default one
    pulse.watch_service("dt")
    assert pulse.latency["dt"].window_us == DEFAULT_WINDOW_US
    assert pulse.latency["dt"].max_windows == DEFAULT_WINDOWS


def test_pulse_observe_records_only_into_a_declared_service():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    pulse.watch_service("rkv", window_us=1_000.0)
    pulse.observe("rkv", 12.0, 50.0)
    pulse.observe("ghost", 12.0, 50.0)
    assert pulse.latency["rkv"].count == 1
    assert set(pulse.latency) == {"rkv"}


def test_pulse_reading_never_creates_a_histogram():
    sim = Simulator()
    pulse = PulsePlane(sim, period_us=100.0)
    ev = _evaluator(pulse)
    pulse.add_evaluator(ev)
    sim.post(250.0, lambda: None)
    sim.run()
    assert ev.report()["evaluations"] == pulse.samples == 1
    assert pulse.latency == {}


def test_evaluations_count_every_pulse_past_the_slow_window():
    sim = Simulator()
    pulse = PulsePlane(sim, period_us=100.0)
    ev = _evaluator(pulse)             # fast_n=10, slow_n=20
    pulse.add_evaluator(ev)
    for k in range(1, 31):             # one event per period
        sim.post(k * 100.0 + 50.0, lambda: None)
    sim.run()
    assert pulse.samples == 30 > ev.slow_n
    assert ev.report()["evaluations"] == pulse.samples


# -- SLO grammar --------------------------------------------------------------

def test_parse_slo_grammar_and_units():
    parsed = parse_slo("rkv p99 < 40us over 2ms")
    assert parsed == {"name": "rkv-p99", "service": "rkv", "pct": 99.0,
                      "threshold_us": 40.0, "window_us": 2_000.0}
    assert parse_slo("svc:dt p99.9 < 1ms over 1s")["threshold_us"] == 1_000.0
    assert parse_slo("a p50 < 5us over 500 us")["window_us"] == 500.0


@pytest.mark.parametrize("text", [
    "rkv p99 over 2ms",                # no threshold clause
    "rkv p99 < 40parsec over 2ms",     # unknown unit
    "p99 < 40us over 2ms",             # no service
    "rkv 99 < 40us over 2ms",          # missing the p
])
def test_parse_slo_rejects_malformed_objectives(text):
    with pytest.raises(ValueError):
        parse_slo(text)


def test_slo_spec_from_text_matches_the_field_form():
    assert SLOSpec.from_text("rkv p99 < 40us over 2ms") == SLOSpec(
        service="rkv", pct=99.0, threshold_us=40.0, window_us=2_000.0,
        name="rkv-p99")
    with pytest.raises(ScenarioError):
        SLOSpec.from_text("not an objective")


# -- burn-rate evaluation -----------------------------------------------------

def _evaluator(pulse, **kwargs):
    defaults = dict(name="rkv-p99", service="rkv",
                    threshold_us=100.0, pct=99.0, window_us=1_000.0,
                    slow_windows=2, budget=0.5, burn_threshold=1.0)
    defaults.update(kwargs)
    return SloEvaluator(pulse, **defaults)


def test_evaluator_breach_needs_a_full_fast_window_then_recovers():
    pulse = PulsePlane(Simulator(), period_us=500.0)
    pulse.watch_service("rkv", window_us=1_000.0)
    store = pulse.store
    ev = _evaluator(pulse)             # fast_n=2, slow_n=4
    pulse.observe("rkv", 250.0, 400.0)  # over the 100us threshold
    ev.evaluate(500.0)
    assert not ev.in_breach            # one bad sample < fast window
    pulse.observe("rkv", 300.0, 900.0)
    ev.evaluate(1_000.0)
    assert ev.in_breach and ev.breaches == 1
    assert ev.transitions[0][1] == "breach"
    # traffic stops; the windowed histogram ages the congestion out and
    # the empty-window sentinel counts as *good* (no traffic burns no
    # budget) — a full fast window of good samples recovers
    ev.evaluate(3_000.0)
    assert ev.in_breach                # streak of 1: still hysteretic
    ev.evaluate(3_500.0)
    assert not ev.in_breach and ev.recoveries == 1
    kinds = [kind for _, kind, _, _ in ev.transitions]
    assert kinds == ["breach", "recover"]
    # every sample also lands in the pulse store for export/fingerprint
    assert store.get("slo.rkv-p99.breach").values() == [0.0, 1.0, 1.0, 0.0]


def test_evaluator_missing_histogram_is_good_not_breach():
    pulse = PulsePlane(Simulator())    # no service declared at all
    store = pulse.store
    ev = _evaluator(pulse)
    for i in range(6):
        ev.evaluate(500.0 * (i + 1))
    assert ev.breaches == 0 and not ev.in_breach
    assert all(no_data(v) for v in store.get("slo.rkv-p99.value").values())


def test_evaluator_rejects_bad_parameters():
    pulse = PulsePlane(Simulator())
    with pytest.raises(ValueError):
        _evaluator(pulse, threshold_us=0.0)
    with pytest.raises(ValueError):
        _evaluator(pulse, budget=1.5)


# -- PulseMonitor invariants --------------------------------------------------

def test_pulse_monitor_clean_plane_yields_nothing():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    assert list(PulseMonitor(pulse).check(0.0)) == []


def test_pulse_monitor_flags_passivity_and_lattice_violations():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    monitor = PulseMonitor(pulse)
    pulse.passive_schedules = 2
    pulse.last_sample_us = 150.0       # off the 100us lattice
    messages = list(monitor.check(200.0))
    assert any("passivity" in m for m in messages)
    assert any("lattice" in m for m in messages)


def test_pulse_monitor_flags_unbacked_breach_accounting():
    pulse = PulsePlane(Simulator(), period_us=100.0)
    ev = _evaluator(pulse)
    pulse.add_evaluator(ev)
    monitor = PulseMonitor(pulse)
    ev.breaches = 1                    # counted, but no transition backs it
    assert any("accounting" in m for m in monitor.check(0.0))
    ev.breaches = 0
    # a breach recorded with burns below the threshold is not conservative
    ev.transitions.append((100.0, "breach", 0.4, 0.4))
    ev.breaches = 1
    ev.in_breach = True
    fresh = PulseMonitor(pulse)
    assert any("below threshold" in m for m in fresh.check(0.0))


# -- spec plumbing ------------------------------------------------------------

def _pulse_spec(**obs_kwargs):
    obs = dict(pulse=PulseSpec(period_us=250.0, retention=64),
               slos=(SLOSpec(service="rkv", threshold_us=40.0),))
    obs.update(obs_kwargs)
    return ScenarioSpec(
        name="t", seed=7, duration_us=3_000.0,
        racks=(RackSpec(name="rack0",
                        servers=(ServerSpec(name="s0"),
                                 ServerSpec(name="s1")),
                        clients=(ClientSpec("c0"),)),),
        apps=(AppSpec(kind="rkv", servers=("s0",)),),
        steering=(SteeringSpec(service="rkv", app="rkv"),),
        rebalance=RebalanceSpec(on_load=True),
        observability=ObsSpec(**obs))


def test_pulse_spec_json_round_trip():
    spec = _pulse_spec()
    spec.validate()
    assert from_json(to_json(spec)) == spec


def test_slo_grammar_strings_load_from_json():
    text = to_json(_pulse_spec()).replace(
        '"slos": [\n      {\n        "service": "rkv",\n'
        '        "threshold_us": 40.0\n      }\n    ]',
        '"slos": ["rkv p99 < 40us over 2ms"]')
    spec = from_json(text)
    assert spec.observability.slos == (SLOSpec(
        service="rkv", pct=99.0, threshold_us=40.0, window_us=2_000.0,
        name="rkv-p99"),)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="TOML specs need tomllib")
def test_pulse_spec_loads_from_toml():
    from repro.scenario.spec import from_toml
    spec = from_toml("""
name = "t"
seed = 7

[[racks]]
name = "rack0"
servers = [{name = "s0"}, {name = "s1"}]
clients = [{name = "c0"}]

[[apps]]
kind = "rkv"
servers = ["s0"]

[[steering]]
service = "rkv"
app = "rkv"

[observability]
slos = ["rkv p99 < 40us over 2ms"]

[observability.pulse]
period_us = 250.0
""")
    spec.validate()
    assert spec.observability.pulse.period_us == 250.0
    assert spec.observability.slos[0].threshold_us == 40.0


def test_unknown_pulse_and_slo_fields_are_rejected():
    text = to_json(_pulse_spec()).replace('"period_us"', '"perod_us"')
    with pytest.raises(ScenarioError) as exc:
        from_json(text)
    assert "unknown field" in str(exc.value)
    text = to_json(_pulse_spec()).replace('"threshold_us"', '"treshold_us"')
    with pytest.raises(ScenarioError):
        from_json(text)


def test_validate_reports_every_pulse_and_slo_problem_at_once():
    spec = _pulse_spec(
        pulse=None,                    # on_load + SLOs with no sampling
        slos=(SLOSpec(service="ghost", threshold_us=0.0, window_us=-1.0,
                      pct=0.0, budget=2.0, slow_windows=0,
                      burn_threshold=0.0),))
    with pytest.raises(ScenarioError) as exc:
        spec.validate()
    message = str(exc.value)
    for fragment in ("on_load needs observability.pulse",
                     "SLOs declared without pulse",
                     "names no declared",
                     "threshold_us must be positive",
                     "window_us must be positive",
                     "pct must be in (0, 100]",
                     "budget must be in (0, 1]",
                     "slow_windows must be >= 1",
                     "burn_threshold must be positive"):
        assert fragment in message, fragment


def test_validate_rejects_slo_window_shorter_than_pulse_period():
    spec = _pulse_spec(slos=(SLOSpec(service="rkv", threshold_us=40.0,
                                     window_us=100.0),))
    with pytest.raises(ScenarioError) as exc:
        spec.validate()
    assert "shorter than the pulse period" in str(exc.value)


# -- the zero-cost contract ---------------------------------------------------

def _sanitized_digest(spec):
    with SanitizerSession(keep_records=False) as session:
        run_scenario(spec, duration_us=5_000.0)
    return session.recorder.digest, session.recorder.steps


def test_pulse_sampling_leaves_the_event_sequence_untouched():
    """The determinism proof for the whole plane: a pulse-instrumented
    run fires the exact same event sequence (identical step digests) as
    an uninstrumented one — sampling is observation, not perturbation."""
    base = load_shipped("multi-rack-rebalance")
    pulsed = dataclasses.replace(
        base, observability=dataclasses.replace(
            base.observability, pulse=PulseSpec(period_us=250.0)))
    assert _sanitized_digest(base) == _sanitized_digest(pulsed)


def test_shipped_fleet_feeds_its_service_slo():
    """A closed-loop fleet's replies feed its service's SLO histogram:
    multi-tenant-mixed's gold fleet (workload kv) measures ``rkv``."""
    scenario = build(load_shipped("multi-tenant-mixed"))
    scenario.run(until=3_000.0)
    scenario.stop()
    gold = [gen for gen, idx in zip(scenario.generators,
                                    scenario.gen_fleets)
            if scenario.spec.fleets[idx].tenant == "gold"]
    assert len(gold) == 1 and gold[0].answered > 0
    pulse = scenario.pulse_plane
    assert pulse.latency["rkv"].count == gold[0].answered
    assert any(not no_data(v)
               for v in pulse.store.get("svc.rkv.p99").values())
