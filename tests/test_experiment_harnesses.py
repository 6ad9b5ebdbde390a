"""Fast sanity tests of the §5 experiment harnesses (short durations)."""

import pytest

from repro.experiments.applications import (
    ROLES,
    latency_throughput_curve,
    overhead_comparison,
    run_app,
)
from repro.experiments.characterization import (
    figure5_panel,
    traffic_manager_experiment,
)
from repro.experiments.migration_study import (
    FIG18_ACTORS,
    breakdown_rows,
    phase_share,
    run_migration_breakdown,
)
from repro.experiments.netfns import (
    firewall_latency_vs_load,
    floem_vs_ipipe,
    ipsec_goodput_gbps,
)
from repro.experiments.report import render_series, render_table
from repro.experiments.scheduler_study import (
    high_dispersion_actors,
    low_dispersion_actors,
    run_point,
    sweep,
)
from repro.nic import LIQUIDIO_CN2350


# -- report helpers ---------------------------------------------------------------

def test_render_table_alignment():
    out = render_table([("a", "long-header"), ("value", "x")], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    assert "---" in lines[2]


def test_render_series():
    out = render_series("s", [1, 2], [3.0, 4.5])
    assert out == "s: 1=3.00 2=4.50"


# -- scheduler study traces ----------------------------------------------------------

def test_low_dispersion_trace_mean_is_calibrated():
    trace = low_dispersion_actors(32.0)
    mean = sum(t.weight * t.mean_us for t in trace)
    assert mean == pytest.approx(32.0, rel=0.01)
    assert sum(t.weight for t in trace) == pytest.approx(1.0)


def test_high_dispersion_trace_structure():
    trace = high_dispersion_actors(35.0, 60.0)
    names = {t.name for t in trace}
    assert "heavy" in names and "burst" in names
    burst = next(t for t in trace if t.name == "burst")
    assert burst.weight < 0.01
    assert burst.mean_us > 1000.0


def test_scheduler_point_runs_fast_config():
    mean, p99 = run_point(LIQUIDIO_CN2350, "ipipe", "low", load=0.5,
                          duration_us=15_000.0)
    assert 20.0 < mean < 80.0
    assert p99 > mean


def test_scheduler_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        run_point(LIQUIDIO_CN2350, "lifo", "low", 0.5)
    with pytest.raises(ValueError):
        run_point(LIQUIDIO_CN2350, "fcfs", "medium", 0.5)


# -- application harness -----------------------------------------------------------------

def test_run_app_rejects_unknown_system():
    with pytest.raises(ValueError):
        run_app("magic", "rta")


def test_run_app_result_fields():
    result = run_app("ipipe", "rta", packet_size=512, clients=8,
                     duration_us=6_000.0)
    assert result.completed > 50
    assert result.throughput_mops > 0
    assert set(result.host_cores) == {"s0", "s1", "s2"}
    assert result.per_core_tput("s0") > 0


def test_ipipe_beats_dpdk_per_core_on_dt():
    dpdk = run_app("dpdk", "dt", packet_size=512, clients=24,
                   duration_us=8_000.0)
    ipipe = run_app("ipipe", "dt", packet_size=512, clients=24,
                    duration_us=8_000.0)
    assert ipipe.per_core_tput("s0") > dpdk.per_core_tput("s0")
    assert ipipe.host_cores["s0"] < dpdk.host_cores["s0"]


def test_latency_throughput_curve_shape():
    curve = latency_throughput_curve("ipipe", "rta", client_counts=(2, 16),
                                     duration_us=6_000.0)
    assert len(curve) == 2
    # more clients → at least as much per-core throughput
    assert curve[1][0] >= curve[0][0] * 0.8


def test_overhead_comparison_reports_positive_overhead():
    rows = overhead_comparison(load_fractions=(0.5,), duration_us=8_000.0,
                               base_clients=48)
    load, dpdk_cores, ipipe_cores = rows[0]
    assert dpdk_cores > 0
    assert ipipe_cores > 0


# -- sweep helpers against their point functions ------------------------------------------

def _host_us_per_op(system):
    result = run_app(system, "rkv", packet_size=512, clients=8,
                     duration_us=2_000)
    return result.host_cores["s0"] / max(result.throughput_mops, 1e-9)


def _tput_and_latency(**kwargs):
    result = run_app("ipipe", "rta", packet_size=512, clients=2,
                     duration_us=2_000, **kwargs)
    return result.per_core_tput("s0"), result.mean_latency_us


HELPER_CELLS = {
    "fig5": (lambda: figure5_panel(sizes=(512,), cores=(6,),
                                   duration_us=2_000),
             lambda: {(512, 6): traffic_manager_experiment(
                 512, 6, duration_us=2_000)}),
    "fig14": (lambda: latency_throughput_curve(
                  "ipipe", "rta", client_counts=(2,), duration_us=2_000,
                  prefill_keys=100),
              lambda: [_tput_and_latency(prefill_keys=100)]),
    "fig16": (lambda: sweep(LIQUIDIO_CN2350, "high", loads=(0.9,),
                            policies=("ipipe",), duration_us=2_000),
              lambda: {"ipipe": [(0.9, *run_point(
                  LIQUIDIO_CN2350, "ipipe", "high", 0.9,
                  duration_us=2_000))]}),
    "fig17": (lambda: overhead_comparison(load_fractions=(0.5,),
                                          duration_us=2_000),
              lambda: [(0.5, _host_us_per_op("dpdk"),
                        _host_us_per_op("ipipe-hostonly"))]),
}


@pytest.mark.parametrize("figure", sorted(HELPER_CELLS))
def test_sweep_helper_matches_its_point_function(figure):
    # one-cell grids: the helper's grid cell and fold return exactly
    # what calling the point function directly does
    helper, direct = HELPER_CELLS[figure]
    assert helper() == direct()


# -- migration study -----------------------------------------------------------------------

def test_fig18_actor_inventory():
    names = [name for name, _, _ in FIG18_ACTORS]
    assert len(names) == 8
    assert "lsmmem" in names
    lsm_bytes = dict((n, b) for n, b, _ in FIG18_ACTORS)["lsmmem"]
    assert lsm_bytes == 32 * 1024 * 1024


def test_migration_breakdown_single_actor():
    from repro.experiments.migration_study import _migrate_one
    report = _migrate_one(LIQUIDIO_CN2350, "lsmmem", 32 << 20, 4.0,
                          load=0.9, warmup_us=1_000.0, seed=7)
    assert report is not None
    assert report.moved_bytes >= 32 << 20
    assert report.phase_us[3] > report.phase_us[1]
    assert report.share(3) > 0.4


# -- network functions harness -----------------------------------------------------------------

def test_firewall_latency_increases_with_load():
    points = firewall_latency_vs_load(rule_count=512, loads=(0.2, 0.9),
                                      duration_us=6_000.0)
    assert points[1][1] >= points[0][1]


def test_ipsec_goodput_positive():
    gbps = ipsec_goodput_gbps(duration_us=6_000.0, clients=64)
    assert 5.0 < gbps < 10.0


def test_floem_comparison_runs():
    floem, ipipe = floem_vs_ipipe(packet_size=1024, clients=24,
                                  duration_us=6_000.0)
    assert floem.throughput_gbps > 0 and ipipe.throughput_gbps > 0
    assert ipipe.gbps_per_core >= floem.gbps_per_core * 0.9
