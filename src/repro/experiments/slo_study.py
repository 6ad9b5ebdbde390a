"""SLO study: burn-rate breach detection driving load-based migration.

The PulsePlane acceptance scenario (see ``docs/OBSERVABILITY.md``): a
steered single-shard RKV service, a well-behaved *victim* client holding
an SLO (``rkv p99 < T over 2ms``), and an *aggressor* fleet that starts
hammering the shard's home server mid-run.  The pulse sampler watches
per-server NIC utilization and the victim's windowed p99; the sequence
the study asserts is the whole closed loop:

1. **breach** — the aggressor drives the victim's p99 over the SLO
   threshold; the multi-window burn-rate evaluator raises ``slo.breach``;
2. **migration** — the :class:`~repro.obs.pulse.LoadFeed` publishes the
   sustained utilization skew to the
   :class:`~repro.net.steering.Rebalancer`, which live-migrates the
   shard to the least-loaded server (``load_moves`` > 0) — *without* any
   fault: this is load-driven rebalancing, not outage evacuation;
3. **recovery** — steered victim traffic follows the repoint, its p99
   falls back under the threshold, and the evaluator emits
   ``slo.recover`` after a full window of in-budget samples.

The ordering breach → migration → recovery is asserted on virtual
timestamps, the run replays bit-identically (the PulsePlane telemetry —
sample CRC, SLO transitions, load migrations — folds into the
:class:`~repro.experiments.chaos_study.ChaosReport` fingerprint), and
the strict PulseMonitor invariants (zero-cost sampling, conservative
breach accounting) hold throughout.

Usage::

    PYTHONPATH=src python -m repro slo --seed 42
    PYTHONPATH=src python -m repro slo --csv pulse.csv --out pulse.json
    PYTHONPATH=src python -m repro check --replay 2 slo-study --quick

or, in code, ``repro.exec.grids.chaos_point("slo", seed=42)``.
"""

from __future__ import annotations

from ..scenario import (
    AppSpec,
    ObsSpec,
    PulseSpec,
    RebalanceSpec,
    RkvOptions,
    ScenarioSpec,
    SLOSpec,
    SteeringSpec,
)
from ..sim import spawn
from .chaos_study import (
    ChaosReport,
    chaos_rack,
    flood,
    paced,
    rkv_requests,
    run_leg,
)


def slo_spec(seed: int = 42, duration_us: float = 40_000.0,
             threshold_us: float = 150.0, period_us: float = 500.0,
             trace: bool = False) -> ScenarioSpec:
    """Two racks, two servers each; the single rkv shard homes on r0s0
    (the aggressor's target), leaving three servers as headroom."""

    return ScenarioSpec(
        name="slo-rebalance", seed=seed, duration_us=duration_us,
        racks=(chaos_rack("rack0", ("r0s0", "r0s1"), ("aggr0",)),
               chaos_rack("rack1", ("r1s0", "r1s1"), ("victim0",))),
        apps=(AppSpec(kind="rkv", servers=("r0s0",), shards=1,
                      options=RkvOptions(memtable_limit=256 * 1024)),),
        steering=(SteeringSpec(service="rkv", app="rkv",
                               window_us=1_500.0),),
        # sustain long enough that the burn-rate breach (which needs a
        # full fast window of bad samples) fires before the migration —
        # the study asserts the breach -> migrate -> recover ordering
        rebalance=RebalanceSpec(on_load=True, sustain_periods=10),
        observability=ObsSpec(
            trace=trace,
            recovery_restart_delay_us=100.0,
            pulse=PulseSpec(period_us=period_us),
            slos=(SLOSpec(service="rkv", threshold_us=threshold_us,
                          pct=99.0, window_us=2_000.0),)))


def run_slo_chaos(seed: int = 42, duration_us: float = 40_000.0,
                  n_requests: int = 80, send_gap_us: float = 400.0,
                  connections: int = 4,
                  aggressor_start_us: float = 8_000.0,
                  aggressor_stop_us: float = 30_000.0,
                  aggressor_gap_us: float = 4.0,
                  threshold_us: float = 150.0,
                  trace: bool = False) -> ChaosReport:
    """Aggressor-vs-victim: SLO breach → load-driven migration → recovery."""
    spec = slo_spec(seed=seed, duration_us=duration_us,
                    threshold_us=threshold_us, trace=trace)

    def setup(bed):
        # its replies feed the steered service's SLO histogram
        victim = bed.clients["victim0"].scripted(
            timeout_us=2_500.0, connections=connections, service="rkv")

        def judge(violations):
            evaluator = bed.pulse_plane._evaluators[0]
            moves = bed.rebalancer.moves
            breach_t = next((t for t, kind, _, _ in evaluator.transitions
                             if kind == "breach"), None)
            recover_t = next((t for t, kind, _, _ in evaluator.transitions
                              if kind == "recover"), None)
            move_t = moves[0][0] if moves else None
            return {"invariants": {
                "breach_detected": evaluator.breaches >= 1,
                "migrated_on_load": bed.rebalancer.load_moves >= 1,
                "slo_recovered": (evaluator.recoveries >= 1
                                  and not evaluator.in_breach),
                "breach_before_move_before_recovery": (
                    breach_t is not None and move_t is not None
                    and recover_t is not None
                    and breach_t <= move_t <= recover_t),
                "pulse_invariants": not violations,
            }}

        spawn(bed.sim, paced(victim, n_requests, send_gap_us, rkv_requests(
            "svc:rkv", lambda i: f"conn{i % connections}:k{i % 7}")),
            name="slo-victim")
        # gets straight at the shard's home server, not the VIP: the
        # aggressor's load must NOT follow the migration.  After the
        # shard moves away the runtime drops the unknown kind at
        # near-zero cost — the contention is gone for the victim.
        spawn(bed.sim, flood(
            bed, "aggr0", "r0s0", "rkv-get",
            lambda i: {"key": f"hot{i % 8}"}, aggressor_start_us,
            aggressor_stop_us, aggressor_gap_us), name="slo-aggressor")
        return victim, judge

    return run_leg("slo", spec, n_requests, setup, monitor="pulse")
