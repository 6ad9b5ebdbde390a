"""The benchmark's workloads: shipped scenario specs at fixed horizons.

Each workload names a spec under ``src/repro/scenario/specs``, the
virtual horizon it is simulated to, and whether it runs through the
rack-sharded executor.  Horizons are shorter than the shipped ones
(20 ms / 10 ms / 10 ms) so that one run holds several repetitions and
the reported medians are steady; host time scales linearly with the
horizon on all three specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str            # shipped spec name
    horizon_us: float    # simulated horizon (virtual microseconds)
    sharded: bool        # run through RackShardExecutor, in-process
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("rkv-open-3rack", "multi-rack-rkv", 10_000.0, False,
             "open-loop 3-rack RKV: idle host-worker polling dominates, "
             "app work is tiny (engine dispatch, event-driven workers)"),
    Workload("testbed-closed", "paper-testbed", 3_000.0, False,
             "the paper's closed-loop 24-client replicated RKV testbed: "
             "mixes runtime, net and apps.rkv (Paxos, LSM, DMO)"),
    Workload("tenant-mixed", "multi-tenant-mixed", 2_000.0, False,
             "two tenants under hierarchical DRR with pulse sampling; "
             "host time is bound by the apps.rta filter NFA"),
    Workload("rkv-open-3rack-sharded", "multi-rack-rkv", 10_000.0, True,
             "rkv-open-3rack through the in-process rack-sharded executor; "
             "its serial twin bypasses exec.shard"),
)}


def prepare(spec, workload: Workload, seed: int):
    """Re-seed ``spec`` for benchmark seed ``seed``.

    Seed 0 keeps the shipped seeds (and therefore the shipped digests);
    seed ``n`` adds ``n`` to the scenario seed and to every fleet seed.
    """
    fleets = tuple(replace(f, seed=f.seed + seed) for f in spec.fleets)
    execution = spec.execution
    if workload.sharded:
        execution = replace(execution, shards="by-rack", processes=0)
    return replace(spec, seed=spec.seed + seed, fleets=fleets,
                   execution=execution)
