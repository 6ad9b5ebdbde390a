"""Steering study: connection-consistent load balancing under rack loss.

The SteerPlane acceptance scenario (see ``docs/FAULTS.md``): a sharded
RKV service behind an epoch-versioned Maglev VIP across three racks,
an open-loop client fleet steering by connection, and a scheduled rack
outage in the middle of the run.  The :class:`~repro.net.steering.Rebalancer`
sees the outage coming, live-migrates the doomed shard to a spare server
in another rack (drain → checkpoint → restore → repoint), and
repatriates it when the rack returns — while the client keeps sending.

Asserted invariants:

* **zero loss** — every request is answered despite the rack outage and
  two live migrations in the middle of the request stream;
* **steering safety** — the :class:`~repro.check.SteeringMonitor`
  observed no request delivered to a backend that does not own its key
  in the request's steering epoch, no affinity break within an epoch,
  and no request handed to two different backends in the same epoch;
* **evacuated / returned** — the shard actually left the doomed rack
  before the outage and was repatriated after it.

Usage::

    PYTHONPATH=src python -m repro trace --workload steering --seed 42
    PYTHONPATH=src python -m repro check --replay 2 steering-chaos --quick

or, in code, ``repro.exec.grids.chaos_point("steering", seed=42)``.

Returns a :class:`~repro.experiments.chaos_study.ChaosReport` whose
``steering`` dict (epochs, forwards, suppressions, moves) folds into the
replay fingerprint — the CI smoke replays the scenario and requires
bit-identical fingerprints.
"""

from __future__ import annotations

from ..scenario import (
    AppSpec,
    ObsSpec,
    RebalanceSpec,
    RkvOptions,
    ScenarioSpec,
    SteeringSpec,
)
from ..sim import FaultKind, FaultSpec, spawn
from .chaos_study import ChaosReport, chaos_rack, paced, rkv_requests, run_leg


def rebalance_spec(seed: int = 42, duration_us: float = 40_000.0,
                   notice_us: float = 6_000.0,
                   trace: bool = False) -> ScenarioSpec:
    """Three racks, two servers each; the rkv shards live on the first
    server of every rack, leaving the second as migration headroom."""

    shard_homes = ("r0s0", "r1s0", "r2s0")
    return ScenarioSpec(
        name="steering-rebalance", seed=seed, duration_us=duration_us,
        racks=tuple(chaos_rack(f"rack{i}", (f"r{i}s0", f"r{i}s1"),
                               ("client0",) if i == 0 else ())
                    for i in range(3)),
        apps=(AppSpec(kind="rkv", servers=shard_homes, shards=3,
                      options=RkvOptions(memtable_limit=256 * 1024)),),
        steering=(SteeringSpec(service="rkv", app="rkv",
                               window_us=1_500.0),),
        rebalance=RebalanceSpec(notice_us=notice_us),
        faults=(FaultSpec(kind=FaultKind.RACK_DOWN, target="rack1",
                          at_us=(duration_us * 0.45,),
                          duration_us=duration_us * 0.25),),
        observability=ObsSpec(trace=trace,
                              recovery_restart_delay_us=100.0))


def run_rebalance_chaos(seed: int = 42, duration_us: float = 40_000.0,
                        n_requests: int = 64, send_gap_us: float = 400.0,
                        connections: int = 6, notice_us: float = 6_000.0,
                        trace: bool = False) -> ChaosReport:
    """Live cross-rack migration under a scheduled rack outage."""
    spec = rebalance_spec(seed=seed, duration_us=duration_us,
                          notice_us=notice_us, trace=trace)

    def setup(bed):
        client = bed.clients["client0"].scripted(timeout_us=2_500.0,
                                                 connections=connections)

        def judge(violations):
            controller, rebalancer = bed.steering, bed.rebalancer
            runtimes = [srv.runtime for _, srv in sorted(bed.servers.items())]
            moves = tuple((round(t, 3), svc, home, src, dst)
                          for t, svc, home, src, dst in rebalancer.moves)
            return {
                "invariants": {
                    "steering_safety": not violations,
                    "evacuated": any(src == "r1s0"
                                     for _, _, _, src, _ in moves),
                    "returned": all(cur == home for home, cur
                                    in rebalancer.placement.items()),
                },
                "steering": {
                    "epochs": controller.service("rkv").epoch,
                    "steered": controller.steered,
                    "forwarded": sum(r.forwarded_cross_rack
                                     for r in runtimes),
                    "suppressed": sum(r.steer_suppressed for r in runtimes),
                    "deliveries": len(controller.deliveries),
                    "moves": moves,
                },
            }

        spawn(bed.sim, paced(client, n_requests, send_gap_us, rkv_requests(
            "svc:rkv", lambda i: f"conn{i % connections}:k{i % 7}")),
            name="steer-driver")
        return client, judge

    return run_leg("steering", spec, n_requests, setup, monitor="steering")
