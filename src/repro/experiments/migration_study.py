"""Figure 18: actor migration cost breakdown (Appendix B.3).

Eight actors from the three applications are force-migrated to the host
under 90% networking load after a warm-up; the elapsed time of each of
the four migration phases is reported.  Phase 3 (moving the distributed
objects over PCIe) dominates — the LSM Memtable actor's ~32MB takes tens
of milliseconds — with phase 4 (forwarding buffered requests) second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core import Actor
from ..core.migration import MigrationReport
from ..nic import LIQUIDIO_CN2350, NicSpec
from ..nic.cores import WorkloadProfile
from ..scenario import (
    ClientSpec,
    FabricSpec,
    RackSpec,
    ScenarioSpec,
    ServerSpec,
    build,
)
from ..sim import Rng, spawn

#: The eight actors of Figure 18 with representative DMO state sizes.
#: The LSM Memtable carries ~32MB (its full Memtable object); protocol
#: actors carry small tables; workers carry window/rank state.
FIG18_ACTORS = (
    ("filter", 64 * 1024, 2.0),
    ("count", 2 * 1024 * 1024, 3.2),
    ("rank", 1 * 1024 * 1024, 34.0),
    ("coord", 4 * 1024 * 1024, 2.4),
    ("parti", 8 * 1024 * 1024, 2.0),
    ("consensus", 4 * 1024 * 1024, 1.9),
    ("lsmmem", 32 * 1024 * 1024, 4.0),
    ("kvcache", 16 * 1024 * 1024, 3.7),
)


def run_migration_breakdown(spec: NicSpec = LIQUIDIO_CN2350,
                            load: float = 0.9,
                            warmup_us: float = 5_000.0,
                            seed: int = 21) -> List[MigrationReport]:
    """Force-migrate each Figure-18 actor under load; returns the reports."""
    reports: List[MigrationReport] = []
    for name, state_bytes, exec_us in FIG18_ACTORS:
        report = _migrate_one(spec, name, state_bytes, exec_us, load,
                              warmup_us, seed)
        if report is not None:
            reports.append(report)
    return reports


def _migrate_one(spec: NicSpec, name: str, state_bytes: int, exec_us: float,
                 load: float, warmup_us: float, seed: int
                 ) -> Optional[MigrationReport]:
    bed = build(ScenarioSpec(
        name=f"fig18-{name}", seed=seed,
        racks=(RackSpec(
            name="rack0",
            servers=(ServerSpec(name="server", nic=spec, host_workers=4,
                                scheduler=(("migration_enabled", False),)),),
            clients=(ClientSpec("client"),)),),
        fabric=FabricSpec(bandwidth_gbps=spec.bandwidth_gbps)))
    server = bed.servers["server"]

    def handler(actor, msg, ctx):
        yield ctx.compute(us=exec_us)
        if msg.packet is not None:
            ctx.reply(msg, size=64)

    actor = Actor(name, handler, concurrent=True,
                  profile=WorkloadProfile(name, exec_us, 1.2, 1.0),
                  state_bytes=state_bytes)
    runtime = server.runtime
    runtime.register_actor(actor, steering_keys=[name, "data"])
    # the actor's DMO state (what phase 3 must move)
    chunk = 1 << 20
    remaining = state_bytes
    while remaining > 0:
        size = min(chunk, remaining)
        runtime.dmo.malloc(name, size, data=bytes(8))
        remaining -= size

    # 90% *networking* load: fraction of line rate at 512B frames, capped
    # by what the actor's handlers can absorb without unbounded queueing
    from ..net import line_rate_pps
    line = line_rate_pps(spec.bandwidth_gbps, 512) / 1e6
    capacity = 0.9 * spec.cores / max(exec_us, 0.5)
    rate_mpps = load * min(line, capacity)
    client = bed.clients["client"]
    gen = client.open_loop(dst="server", rate_mpps=rate_mpps, size=512,
                           rng=Rng(seed))

    holder: Dict[str, MigrationReport] = {}

    def force():
        result = yield from runtime.migrator.migrate_to_host(actor)
        holder["report"] = result

    bed.sim.post_at(warmup_us, lambda: spawn(bed.sim, force()))
    deadline = warmup_us + 400_000.0
    while "report" not in holder and bed.sim.now < deadline:
        bed.sim.run(until=bed.sim.now + 5_000.0)
    gen.stop()
    runtime.stop()
    return holder.get("report")


@dataclass
class BreakdownRow:
    actor: str
    phase1_us: float
    phase2_us: float
    phase3_us: float
    phase4_us: float

    @property
    def total_ms(self) -> float:
        return (self.phase1_us + self.phase2_us
                + self.phase3_us + self.phase4_us) / 1000.0


def breakdown_rows(reports: List[MigrationReport]) -> List[BreakdownRow]:
    return [
        BreakdownRow(
            actor=r.actor,
            phase1_us=r.phase_us.get(1, 0.0),
            phase2_us=r.phase_us.get(2, 0.0),
            phase3_us=r.phase_us.get(3, 0.0),
            phase4_us=r.phase_us.get(4, 0.0),
        )
        for r in reports
    ]


def phase_share(reports: List[MigrationReport], phase: int) -> float:
    """Average share of migration time spent in a phase across actors."""
    shares = [r.share(phase) for r in reports if r.total_us > 0]
    return sum(shares) / len(shares) if shares else 0.0
