"""A by-rack spec runs on the one serial simulator.

``execution.shards="by-rack"`` only makes ``fault_streams="auto"``
resolve to per-component streams, so a by-rack run must equal its twin:
the same spec with ``shards="none"`` and ``fault_streams="per-component"``.
:class:`repro.exec.shard.RackShardExecutor` is kept as a name for
``run_scenario``.
"""

from dataclasses import replace

import pytest

from repro.check.sanitizer import SanitizerSession
from repro.core.dmo import DmoError
from repro.exec.shard import RackShardExecutor
from repro.scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FleetSpec,
    PulseSpec,
    RackSpec,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    SLOSpec,
    TenantSpec,
    load_shipped,
    run_scenario,
)
from repro.scenario.spec import ExecSpec
from repro.sim import FaultSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:          # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


def _by_rack(spec):
    return replace(spec, execution=ExecSpec(shards="by-rack"))


def _twin(spec):
    return replace(spec, execution=ExecSpec(
        shards="none", fault_streams="per-component"))


def _same_as_twin(spec, duration_us=None):
    ran = run_scenario(_by_rack(spec), duration_us=duration_us)
    twin = run_scenario(_twin(spec), duration_us=duration_us)
    assert ran.fingerprint() == twin.fingerprint()
    return ran


# -- shipped multi-rack specs ------------------------------------------------

@pytest.mark.parametrize("name", ["multi-rack-rkv", "multi-rack-chaos"])
def test_shipped_spec_fingerprints_match(name):
    _same_as_twin(load_shipped(name), duration_us=5_000.0)


def test_canonical_event_digest_matches():
    # one simulator either way, so the sanitizer's own digest (time,
    # callback and RNG position of every event) must match too
    digests = []
    for make in (_by_rack, _twin):
        with SanitizerSession(keep_records=False) as session:
            run_scenario(make(load_shipped("multi-rack-chaos")),
                         duration_us=1_500.0)
        digests.append((session.recorder.digest, session.recorder.steps))
    assert digests[0] == digests[1] and digests[0][1] > 0


def test_rack_down_fault_equivalence():
    spec = load_shipped("multi-rack-rkv")
    spec = replace(spec, faults=spec.faults + (
        FaultSpec(kind="rack_down", target="rack1",
                  at_us=(800.0,), duration_us=400.0),))
    assert _same_as_twin(spec, duration_us=3_000.0).faults_injected > 0


def test_by_rack_runs_steering_pulse_and_tracing():
    # every plane runs on a by-rack spec: steering with its rebalancer,
    # pulse sampling, an SLO and tracing, through a rack outage
    spec = load_shipped("multi-rack-rebalance")
    spec = replace(spec, observability=replace(
        spec.observability, trace=True, pulse=PulseSpec(period_us=250.0),
        slos=(SLOSpec.from_text("rkv p99 < 400us over 2ms"),)))
    _by_rack(spec).validate()
    assert _same_as_twin(spec).faults_injected > 0


def test_rack_shard_executor_is_run_scenario():
    spec = _by_rack(load_shipped("multi-rack-rkv"))
    executor = RackShardExecutor(spec, duration_us=1_000.0)
    result = executor.run()
    assert result.fingerprint() == run_scenario(
        spec, duration_us=1_000.0).fingerprint()
    assert executor.rounds == executor.transfers == 0


# -- build-time planes --------------------------------------------------------

def test_tenant_dmo_budget_applies_to_sharded_builds():
    spec = load_shipped("multi-rack-rkv")
    spec = replace(spec, tenants=(TenantSpec(name="t", dmo_budget_bytes=1),),
                   apps=(replace(spec.apps[0], tenant="t"),))
    with pytest.raises(DmoError, match="budget"):
        run_scenario(_by_rack(spec), duration_us=1_000.0)


# -- degenerate and invalid specs ---------------------------------------------

def test_single_rack_spec_degenerates_to_serial():
    spec = ScenarioSpec(
        name="one-rack", seed=11, duration_us=1_500.0,
        racks=(RackSpec(name="rack0",
                        servers=(ServerSpec(name="s0", host_workers=2),
                                 ServerSpec(name="s1", host_workers=2)),
                        clients=(ClientSpec("c0"),)),),
        apps=(AppSpec(kind="rkv", servers=("s0", "s1")),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=0.05, seed=3),))
    assert _same_as_twin(spec).sent > 0


@pytest.mark.parametrize("mutation, fragment", [
    (dict(shards="by-rack", fault_streams="shared"), "per-component"),
    (dict(shards="by-rack", processes=3), "processes"),
])
def test_by_rack_validation_rejections(mutation, fragment):
    # both are rules on ExecSpec's own fields, so ExecSpec refuses them
    with pytest.raises(ScenarioError, match=fragment):
        replace(load_shipped("multi-rack-rkv"),
                execution=ExecSpec(**mutation)).validate()


# -- randomized cross-rack traffic (hypothesis) ------------------------------

def _random_grid_spec(racks: int, rate_mpps: float, seed: int,
                      rack_down: bool) -> ScenarioSpec:
    """A small multi-rack RKV deployment with all cross-rack traffic:
    the only client lives on rack0 while the replica group spans every
    rack, so every request and every Paxos round crosses the spine."""
    rack_specs = []
    for idx in range(racks):
        rack_specs.append(RackSpec(
            name=f"rack{idx}",
            servers=(ServerSpec(name=f"r{idx}s0", host_workers=2),),
            clients=(ClientSpec(f"c{idx}"),) if idx == 0 else ()))
    faults = ()
    if rack_down:
        faults = (FaultSpec(kind="rack_down", target="rack1",
                            at_us=(250.0,), duration_us=150.0),)
    return ScenarioSpec(
        name=f"grid-{racks}r", seed=seed, duration_us=800.0,
        racks=tuple(rack_specs), fabric=FabricSpec(),
        apps=(AppSpec(kind="rkv",
                      servers=tuple(f"r{i}s0" for i in range(racks))),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=rate_mpps, seed=seed + 1),),
        faults=faults)


if HAVE_HYPOTHESIS:
    @settings(max_examples=6, deadline=None)
    @given(racks=st.integers(min_value=2, max_value=3),
           rate=st.sampled_from([0.02, 0.05, 0.1]),
           seed=st.integers(min_value=0, max_value=2**16),
           rack_down=st.booleans())
    def test_random_cross_rack_traffic_is_equivalent(racks, rate, seed,
                                                     rack_down):
        _same_as_twin(_random_grid_spec(racks, rate, seed, rack_down))
else:                        # pragma: no cover - hypothesis is optional
    @pytest.mark.skip(reason="hypothesis not installed")
    def test_random_cross_rack_traffic_is_equivalent():
        pass
