"""The SLO study end-to-end: the breach → load-driven migration →
recovery loop closes, the pulse telemetry folds into the replay
fingerprint, and the grid record has the documented shape."""

import pytest

from repro.exec.grids import chaos_point
from repro.experiments.slo_study import run_slo_chaos, slo_spec

#: Shrunk run (same shape ``repro check slo-study --quick`` uses): the
#: aggressor still drives a breach, the LoadFeed still migrates, the
#: victim still recovers — in about a second of wall time.
QUICK = dict(duration_us=25_000.0, n_requests=55,
             aggressor_stop_us=20_000.0)


@pytest.fixture(scope="module")
def report():
    return run_slo_chaos(seed=42, **QUICK)


def test_spec_validates_and_declares_the_closed_loop_parts():
    spec = slo_spec()
    spec.validate()
    assert spec.rebalance.on_load
    assert spec.observability.pulse is not None
    assert spec.observability.slos[0].service == "rkv"


def test_breach_migration_recovery_ordering(report):
    assert report.ok, report.invariants
    assert report.lost == 0
    inv = report.invariants
    assert inv["breach_detected"] and inv["migrated_on_load"]
    assert inv["slo_recovered"]
    assert inv["breach_before_move_before_recovery"]
    assert inv["pulse_invariants"]


def test_pulse_telemetry_digest_shape(report):
    pt = report.pulse
    assert pt["samples"] > 0 and pt["series"] > 0
    assert pt["passive_schedules"] == 0
    assert pt["breaches"] >= 1 and pt["recoveries"] >= 1
    kinds = [kind for _, _, kind in pt["slo_transitions"]]
    assert kinds[0] == "breach" and kinds[-1] == "recover"
    # the migration the LoadFeed triggered, with its home and refuge
    (t, home, dst), = pt["load_migrations"]
    assert home == "r0s0" and dst != home and t > 0


def test_replay_is_bit_identical(report):
    again = run_slo_chaos(seed=42, **QUICK)
    assert again.telemetry_fingerprint() == report.telemetry_fingerprint()
    assert again.pulse["store_crc"] == report.pulse["store_crc"]


def test_slo_point_record_is_plain_data(report):
    record = chaos_point("slo", seed=42, **QUICK)
    assert record["workload"] == "slo" and record["ok"]
    assert record["pulse"] == report.pulse
    assert record["fingerprint"] == report.telemetry_fingerprint()
    # plain data only: the record must survive a round trip through
    # equality with itself after repr (no live objects smuggled in)
    assert "pulse_plane" not in record and "trace_plane" not in record
