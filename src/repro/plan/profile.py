"""Profile ingestion: run a scenario under the TracePlane and fold the
attribution the placement solver consumes.

A :class:`PlanProfile` is the planner's whole view of the world:

* per ``(server, actor)`` — measured request rate, mean service time,
  request bytes, the actor's device at measurement time, whether it is
  pinned (storage-backed actors must stay host-side, §4), and the
  actor's Table-3 workload characterization (IPC/MPKI) when it has one,
  so :func:`~repro.nic.cores.time_on_nic` / ``time_on_host`` can re-time
  it on any device;
* per pipeline stage — the TracePlane's p50/p99 table, including the
  ``channel`` stage whose mean is the measured host↔NIC ring-crossing
  cost a host placement pays per request.

Profiles are deterministic (the profiling run is an ordinary seeded
simulation) and fingerprint-stable, so the same scenario always produces
the same profile — and therefore, through the deterministic solver, the
same plan.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..scenario.build import build
from ..scenario.spec import ScenarioSpec

#: Default profiling window (µs of virtual time).
PROFILE_DURATION_US = 5_000.0


@dataclass(frozen=True)
class ActorProfile:
    """One actor's measured behaviour on one server."""

    server: str
    actor: str
    device: str                        # nic | host (at measurement time)
    pinned: bool
    rate_per_us: float                 # requests per µs over the window
    service_us: float                  # mean service time (EWMA µ)
    request_bytes: float
    #: Table-3 characterization when the actor carries a WorkloadProfile
    exec_us: float = 0.0
    ipc: float = 0.0
    mpki: float = 0.0

    def load(self) -> float:
        """Offered core-load (busy fraction) at the measured rate."""
        return self.rate_per_us * self.service_us


@dataclass(frozen=True)
class StageProfile:
    """One pipeline stage's latency distribution."""

    stage: str
    count: int
    p50_us: float
    p99_us: float
    mean_us: float


@dataclass(frozen=True)
class PlanProfile:
    """Everything the solver knows about one scenario."""

    scenario: str
    seed: int
    duration_us: float
    actors: Tuple[ActorProfile, ...] = ()
    stages: Tuple[StageProfile, ...] = ()

    def stage(self, name: str) -> Optional[StageProfile]:
        for st in self.stages:
            if st.stage == name:
                return st
        return None

    def crossing_us(self) -> float:
        """Measured host↔NIC ring-crossing cost per request (µs)."""
        st = self.stage("channel")
        return st.mean_us if st is not None else 1.0

    def tail_factor(self) -> float:
        """Measured p99/p50 inflation of the service stage — how much
        the tail stretches over the median under the profiled load."""
        st = self.stage("service")
        if st is None or st.p50_us <= 0:
            return 2.0
        return max(st.p99_us / st.p50_us, 1.0)

    def actors_on(self, server: str) -> List[ActorProfile]:
        return [a for a in self.actors if a.server == server]

    def fingerprint(self) -> str:
        """Content fingerprint (CRC over the rounded canonical form)."""
        text = json.dumps(to_dict(self), sort_keys=True,
                          separators=(",", ":"))
        return f"{zlib.crc32(text.encode()):08x}"


def to_dict(profile: PlanProfile) -> Dict[str, Any]:
    """Plain-data form; floats rounded so fingerprints stay stable."""
    def convert(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: convert(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, float):
            return round(obj, 9)
        return obj
    return convert(profile)


def _profiling_spec(spec: ScenarioSpec,
                    duration_us: Optional[float]) -> ScenarioSpec:
    """The spec rewritten for one traced, serial profiling window."""
    obs = dataclasses.replace(spec.observability, trace=True)
    execution = dataclasses.replace(
        spec.execution, shards="none",
        fault_streams=spec.execution.resolved_fault_streams())
    out = dataclasses.replace(spec, observability=obs, execution=execution)
    if duration_us is not None:
        out = dataclasses.replace(out, duration_us=duration_us)
    return out


def profile_scenario(spec: ScenarioSpec,
                     duration_us: Optional[float] = None) -> PlanProfile:
    """Run one traced window of ``spec`` and fold the attribution.

    The profiling run is serial (tracing is not rack-shardable) and
    fault-free behaviour is whatever the spec declares — a plan made
    from a chaotic profile is planned *for* that chaos.
    """
    window = duration_us if duration_us is not None \
        else min(spec.duration_us, PROFILE_DURATION_US)
    scenario = build(_profiling_spec(spec, window))
    scenario.run(until=window)
    scenario.stop()

    rows: List[ActorProfile] = []
    for name in sorted(scenario.servers):
        runtime = scenario.servers[name].runtime
        for actor in sorted(runtime.actors, key=lambda a: a.name):
            wp = actor.profile
            rows.append(ActorProfile(
                server=name,
                actor=actor.name,
                device=actor.location.value,
                pinned=actor.pinned,
                rate_per_us=actor.requests_seen / window,
                service_us=actor.service.mu,
                request_bytes=actor.request_bytes_ewma,
                exec_us=wp.exec_us if wp is not None else 0.0,
                ipc=wp.ipc if wp is not None else 0.0,
                mpki=wp.mpki if wp is not None else 0.0,
            ))

    stages: List[StageProfile] = []
    plane = scenario.trace_plane
    if plane is not None:
        for stage, st in plane.stage_breakdown().items():
            stages.append(StageProfile(
                stage=stage, count=st.count, p50_us=st.p50_us,
                p99_us=st.p99_us, mean_us=st.mean_us))

    return PlanProfile(scenario=spec.name, seed=spec.seed,
                       duration_us=window, actors=tuple(rows),
                       stages=tuple(stages))
