"""Chaos study: the paper's workloads under a deterministic FaultPlane.

Runs the three distributed applications (§4) on the simulated testbed
while the FaultPlane injects link loss, torn DMA writes, core failures
and actor crashes — then asserts the invariants that separate a demo
dataplane from a deployable one:

* **zero client-visible request loss** — every request is eventually
  answered, via channel retransmission, actor restart, or client-level
  retry (the recovery stack working end to end);
* **Paxos safety** — no two RKV replicas commit different values for the
  same log instance, no matter what the fabric dropped;
* **OCC write provenance** — no DT participant exposes a value that was
  never committed (aborted writes leave no trace);
* **deterministic replay** — the same fault seed reproduces the same
  fault schedule and the same recovery telemetry, byte for byte.

This module is also the one harness every acceptance leg runs on:
:func:`run_leg` builds the spec, drains the traffic and assembles the
:class:`ChaosReport`, and :data:`STUDIES` registers the six legs (the
three chaos workloads plus the steering, SLO and tenant studies) with
their default seed and ``--quick`` preset.

Usage::

    PYTHONPATH=src python -m repro trace --workload rkv --seed 42
    PYTHONPATH=src python -m repro check --replay 2 chaos-rkv --quick

or, in code, ``repro.exec.grids.chaos_point("rkv", seed=42)``.  Each
``run_*_chaos`` function returns a :class:`ChaosReport`; see
``docs/FAULTS.md`` for the fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.dt import DtCoordinatorNode, DtParticipantNode
from ..apps.rkv import RkvNode
from ..check import CheckPlane
from ..core import Message, recovery_snapshot
from ..net import Client, Packet
from ..obs import TracePlane
from ..scenario import (
    AppSpec,
    ClientSpec,
    DtOptions,
    ObsSpec,
    RackSpec,
    RkvOptions,
    ScenarioSpec,
    ServerSpec,
    build,
)
from ..sim import FaultKind, FaultSpec, Simulator, Timeout, spawn

#: extra drain time granted after the nominal run when requests are
#: still outstanding (recovery in progress)
DRAIN_CHUNK_US = 20_000.0
MAX_DRAIN_CHUNKS = 6


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    workload: str
    seed: int
    requests: int
    answered: int
    #: requests unanswered after the drain: the client's in-flight and
    #: lost requests together
    lost: int
    client_retransmits: int
    duplicate_replies: int
    duration_us: float
    faults_injected: Dict[str, int] = field(default_factory=dict)
    fault_schedule: List[Tuple[float, str, str]] = field(default_factory=list)
    recovery: Dict[str, object] = field(default_factory=dict)  # per node
    invariants: Dict[str, bool] = field(default_factory=dict)
    #: per-stage latency table from the TracePlane ({stage: {p50_us, ...}});
    #: empty when the scenario ran untraced
    stage_latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: SteerPlane telemetry (epochs, forwards, suppressions, moves);
    #: empty unless the scenario ran with fabric steering
    steering: Dict[str, object] = field(default_factory=dict)
    #: PulsePlane telemetry (sample counts, series CRC, SLO transitions,
    #: load-driven migrations); empty unless the scenario ran a pulse
    pulse: Dict[str, object] = field(default_factory=dict)
    #: the TracePlane itself, for Chrome-trace export (not part of the
    #: replay fingerprint)
    trace_plane: Optional[TracePlane] = field(default=None, repr=False,
                                              compare=False)
    #: the PulsePlane itself, for SLO reports and CSV/Perfetto export
    #: (the fingerprint uses only the plain-data ``pulse`` digest)
    pulse_plane: Optional[object] = field(default=None, repr=False,
                                          compare=False)

    @property
    def ok(self) -> bool:
        return self.lost == 0 and all(self.invariants.values())

    def telemetry_fingerprint(self) -> Tuple:
        """Deterministic-replay digest: fault schedule + recovery
        telemetry.  Two runs with the same seed must produce equal
        fingerprints."""
        per_node = []
        for node in sorted(self.recovery):
            snap = self.recovery[node]
            per_node.append((
                node, snap.retransmits, snap.ring_full_backoffs, snap.nacks,
                snap.messages_recovered, snap.crashes, snap.restarts,
                snap.core_failures, snap.core_stalls,
                round(snap.mttr_mean_us, 6), round(snap.mttr_max_us, 6),
            ))
        base = (tuple(self.fault_schedule), tuple(per_node),
                self.answered, self.client_retransmits)
        if self.steering:
            base = base + (tuple(sorted(self.steering.items())),)
        if self.pulse:
            base = base + (tuple(sorted(self.pulse.items())),)
        return base

    def to_record(self) -> Dict[str, object]:
        """The plain-data grid/CI record (picklable, fingerprint last).

        The one assembly point behind ``grids.chaos_point``, so telemetry
        riders — steering, pulse — fold into every record and every
        fingerprint in one place.
        """
        record: Dict[str, object] = {
            "workload": self.workload,
            "seed": self.seed,
            "requests": self.requests,
            "answered": self.answered,
            "lost": self.lost,
            "client_retransmits": self.client_retransmits,
            "duplicate_replies": self.duplicate_replies,
            "duration_us": self.duration_us,
            "faults_injected": dict(self.faults_injected),
            "invariants": dict(self.invariants),
            "ok": self.ok,
            "stage_latencies": dict(self.stage_latencies),
        }
        if self.steering:
            record["steering"] = dict(self.steering)
        if self.pulse:
            record["pulse"] = dict(self.pulse)
        record["fingerprint"] = self.telemetry_fingerprint()
        return record

    def summary(self) -> str:
        mttrs = [s.mttr_mean_us for s in self.recovery.values()
                 if s.mttr_mean_us > 0]
        retrans = sum(s.retransmits for s in self.recovery.values())
        restarts = sum(s.restarts for s in self.recovery.values())
        lines = [
            f"[chaos:{self.workload}] seed={self.seed} "
            f"{self.answered}/{self.requests} answered, lost={self.lost}, "
            f"client retries={self.client_retransmits}, "
            f"dup replies={self.duplicate_replies}",
            f"  faults injected: {self.faults_injected or 'none'} "
            f"({len(self.fault_schedule)} scheduled events)",
            f"  recovery: {retrans} channel retransmits, "
            f"{restarts} actor restarts, "
            f"MTTR mean={sum(mttrs) / len(mttrs):.1f}us" if mttrs else
            f"  recovery: {retrans} channel retransmits, "
            f"{restarts} actor restarts",
            f"  invariants: " + ", ".join(
                f"{name}={'ok' if good else 'VIOLATED'}"
                for name, good in self.invariants.items()),
        ]
        steer = self.steering
        if steer:
            lines.append(
                f"  steering: {steer['epochs']} epoch bumps, "
                f"{steer['steered']} steered, "
                f"{steer['forwarded']} forwarded, "
                f"{steer['suppressed']} duplicates suppressed")
            lines.extend(
                f"  move @{t:10.1f}us {svc}: {src} -> {dst} (home {home})"
                for t, svc, home, src, dst in steer["moves"])
        for stage, st in self.stage_latencies.items():
            lines.append(
                f"  stage {stage:14s} n={st['count']:<7d} "
                f"p50={st['p50_us']:8.2f}µs p99={st['p99_us']:8.2f}µs")
        return "\n".join(lines)


#: ``setup(bed) -> (client, judge)``: a leg's clients and drivers.
#: ``client`` is the one the run drains and the zero-loss invariant
#: counts; ``judge(violations)`` runs after the drain and returns the
#: leg's extra :class:`ChaosReport` fields — ``invariants`` always,
#: ``steering`` and ``pulse`` riders when the leg has them.
LegSetup = Callable[[object], Tuple[Client, Callable[[List], Dict]]]


def run_leg(workload: str, spec: ScenarioSpec, requests: int,
            setup: LegSetup, monitor: Optional[str] = None) -> ChaosReport:
    """The one harness every acceptance leg runs on.

    Builds ``spec``, lets ``setup`` spawn the leg's drivers, drains the
    run until the client is answered, collects the fault telemetry,
    hands ``judge`` the checker violations of ``monitor``, finishes the
    trace and assembles the report.  Legs that read a monitor run under
    a non-strict :class:`~repro.check.CheckPlane` when none is installed
    (outside a SanitizerSession), so the report carries violations
    instead of aborting mid-run.
    """
    sim = Simulator()
    if monitor is not None and sim.checker is None:
        CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    client, judge = setup(bed)
    sim.run(until=spec.duration_us)
    for _ in range(MAX_DRAIN_CHUNKS):
        if client.sent == client.answered:
            break
        sim.run(until=sim.now + DRAIN_CHUNK_US)

    plane = bed.fault_plane
    recovery = {} if plane is None else {
        name: recovery_snapshot(server.runtime)
        for name, server in sorted(bed.servers.items())}
    checker = sim.checker
    violations = ([v for v in checker.violations if v.monitor == monitor]
                  if checker is not None and monitor is not None else [])
    found = judge(violations)
    pulse = bed.pulse_plane
    telemetry = {} if pulse is None else {**pulse.telemetry(),
                                          **found.get("pulse", {})}
    tplane = bed.trace_plane
    stages: Dict[str, Dict[str, float]] = {}
    if tplane is not None:
        tplane.tracer.close_all()           # flush open spans
        stages = tplane.stage_report()
    unanswered = client.sent - client.answered
    return ChaosReport(
        workload=workload, seed=spec.seed, requests=requests,
        answered=client.answered, lost=unanswered,
        client_retransmits=client.retransmits,
        duplicate_replies=client.duplicates,
        duration_us=sim.now,
        faults_injected={} if plane is None else dict(plane.counts),
        fault_schedule=[] if plane is None else list(plane.schedule_log),
        recovery=recovery,
        invariants={"zero_loss": unanswered == 0, **found["invariants"]},
        steering=found.get("steering", {}),
        pulse=telemetry,
        stage_latencies=stages,
        trace_plane=tplane,
        pulse_plane=pulse,
    )


def chaos_rack(name: str, servers, clients=()) -> RackSpec:
    """A rack of chaos servers: migration pinned off, reliable channels."""
    return RackSpec(
        name=name,
        servers=tuple(ServerSpec(name=n, host_workers=2, reliable=True,
                                 scheduler=(("migration_enabled", False),))
                      for n in servers),
        clients=tuple(ClientSpec(c) for c in clients))


def paced(client: Client, n_requests: int, gap_us: float,
          make: Callable[[int], Tuple]):
    """Driver: ``client.request(*make(i))`` for each ``i < n_requests``,
    one every ``gap_us``; ``make(i)`` returns (dst, kind, payload, size)."""
    for i in range(n_requests):
        client.request(*make(i))
        yield Timeout(gap_us)


def rkv_requests(dst: str, key: Callable[[int], str]):
    """RKV requests for :func:`paced`: every third a get, the rest
    64-byte puts; ``key(i)`` names the key."""
    value = bytes(64)

    def make(i):
        if i % 3 == 2:
            return dst, "rkv-get", {"key": key(i)}, 96
        return dst, "rkv-put", {"key": key(i), "value": value}, 192
    return make


def flood(bed, src: str, dst: str, kind: str, payload: Callable[[int], Dict],
          start_us: float, stop_us: float, gap_us: float):
    """Driver: fire-and-forget 256-byte ``kind`` packets from ``src`` to
    ``dst`` every ``gap_us`` between ``start_us`` and ``stop_us`` — an
    aggressor nobody waits on; ``payload(i)`` builds the i-th body."""
    yield Timeout(start_us)
    i = 0
    while bed.sim.now < stop_us:
        bed.network.send(Packet(src, dst, 256, kind=kind, payload=payload(i),
                                created_at=bed.sim.now))
        i += 1
        yield Timeout(gap_us)


def _chaos_spec(name: str, seed: int, duration_us: float, nodes,
                app: AppSpec, faults, trace: bool) -> ScenarioSpec:
    """One rack of chaos servers, one client, actor restarts on."""
    return ScenarioSpec(
        name=name, seed=seed, duration_us=duration_us,
        racks=(chaos_rack("rack0", nodes, ("client",)),),
        apps=(app,), faults=tuple(faults),
        observability=ObsSpec(trace=trace,
                              recovery_restart_delay_us=100.0))


# -- RKV ----------------------------------------------------------------------
def paxos_safety_ok(rkv_nodes: Dict[str, RkvNode]) -> bool:
    """No two replicas may commit different values for one instance."""
    committed: Dict[int, object] = {}
    for node in rkv_nodes.values():
        for instance, entry in node.paxos.log.items():
            if not entry.committed:
                continue
            if instance in committed and committed[instance] != entry.value:
                return False
            committed.setdefault(instance, entry.value)
    return True


def run_rkv_chaos(seed: int = 42, loss: float = 0.02,
                  torn_every_nth: int = 3, n_requests: int = 45,
                  crash_memtable: bool = True,
                  duration_us: float = 60_000.0,
                  value_bytes: int = 64,
                  send_gap_us: float = 200.0,
                  trace: bool = False) -> ChaosReport:
    """Replicated KV store under link loss + torn DMA + an actor crash.

    The acceptance scenario: ≥1% link loss and periodic torn writes on
    the leader's NIC→host ring, with reliable channels and actor restart
    enabled — and still zero client-visible request loss.
    """
    nodes = ("s0", "s1", "s2")
    faults = [
        FaultSpec(kind=FaultKind.LINK_LOSS, target="*", probability=loss),
        FaultSpec(kind=FaultKind.DMA_TORN, target="s0.chan.*",
                  every_nth=torn_every_nth),
    ]
    if crash_memtable:
        faults.append(FaultSpec(kind=FaultKind.ACTOR_CRASH,
                                target="memtable", node="s0",
                                at_us=(duration_us * 0.25,)))
    spec = _chaos_spec(
        "chaos-rkv", seed, duration_us, nodes,
        AppSpec(kind="rkv", servers=nodes, leader="s0",
                options=RkvOptions(memtable_limit=256 * 1024)),
        faults, trace)
    value = bytes(value_bytes)

    def setup(bed):
        rkv: Dict[str, RkvNode] = bed.app("rkv").nodes
        client = bed.clients["client"].scripted()

        def make(i):
            if i % 6 == 5:
                # memtable miss: crosses the host↔NIC rings (sst_read),
                # so torn DMA writes hit the request path
                return "s0", "rkv-get", {"key": f"cold{i}"}, 96
            if i % 3 == 2:
                return "s0", "rkv-get", {"key": f"k{(i - 1) % 17}"}, 96
            return ("s0", "rkv-put", {"key": f"k{i % 17}", "value": value},
                    128 + value_bytes)

        def paxos_repair():
            # periodic liveness tick: lost ACCEPTs would otherwise strand
            # an instance below quorum and stall the apply loop forever
            while True:
                yield Timeout(1_000.0)
                for name in nodes:
                    bed.server(name).runtime.deliver(Message(
                        target="consensus", kind="paxos-tick", payload=None,
                        size=32, created_at=bed.sim.now))

        spawn(bed.sim, paced(client, n_requests, send_gap_us, make),
              name="chaos-driver")
        spawn(bed.sim, paxos_repair(), name="paxos-repair")
        return client, lambda _: {
            "invariants": {"paxos_safety": paxos_safety_ok(rkv)}}

    return run_leg("rkv", spec, n_requests, setup)


# -- DT -----------------------------------------------------------------------
def occ_provenance_ok(coordinator: DtCoordinatorNode,
                      participants: List[DtParticipantNode]) -> bool:
    """No participant may expose a value outside the committed history."""
    committed_values: Dict[str, set] = {}
    for record in coordinator.log.active.records:
        for key, val in record.writes.items():
            committed_values.setdefault(key, set()).add(val)
    for part in participants:
        # phantom check: any value a participant exposes must come from a
        # committed record.  version == 0 entries are lock placeholders
        # (try_lock on an absent key) — never-written, i.e. "absent", the
        # same as a commit message lost on the wire (stale-by-absence).
        for bucket in part.participant.store._buckets:
            for entry in bucket:
                if entry.value is None or entry.version == 0:
                    continue
                if entry.value not in committed_values.get(entry.key, set()):
                    return False
    return True


def run_dt_chaos(seed: int = 42, loss: float = 0.005,
                 torn_every_nth: int = 9, n_txns: int = 30,
                 duration_us: float = 60_000.0,
                 send_gap_us: float = 300.0,
                 trace: bool = False) -> ChaosReport:
    """Distributed transactions under loss: every txn must be answered
    (committed or aborted) and no aborted write may leak into a store."""
    nodes = ("s0", "s1", "s2")
    spec = _chaos_spec(
        "chaos-dt", seed, duration_us, nodes,
        AppSpec(kind="dt", servers=nodes,
                options=DtOptions(log_segment_bytes=1 << 20)),
        (FaultSpec(kind=FaultKind.LINK_LOSS, target="*", probability=loss),
         FaultSpec(kind=FaultKind.DMA_TORN, target="s0.chan.*",
                   every_nth=torn_every_nth)),
        trace)

    def setup(bed):
        dt = bed.app("dt").nodes
        client = bed.clients["client"].scripted(timeout_us=3_000.0)

        spawn(bed.sim, paced(client, n_txns, send_gap_us, lambda i: (
            "s0", "dt-txn", {"reads": [f"x{i % 8}"],
                             "writes": {f"y{i % 8}": f"v{i}".encode()}},
            160)), name="chaos-driver")
        return client, lambda _: {"invariants": {
            "occ_provenance": occ_provenance_ok(dt["s0"],
                                                [dt["s1"], dt["s2"]])}}

    return run_leg("dt", spec, n_txns, setup)


# -- RTA ----------------------------------------------------------------------
def run_rta_chaos(seed: int = 42, loss: float = 0.01,
                  n_requests: int = 40, duration_us: float = 60_000.0,
                  send_gap_us: float = 250.0,
                  trace: bool = False) -> ChaosReport:
    """Analytics pipeline surviving a NIC core failure, a core stall and
    a crash of the stateful counter actor."""
    spec = _chaos_spec(
        "chaos-rta", seed, duration_us, ("s0",),
        AppSpec(kind="rta", servers=("s0",)),
        (FaultSpec(kind=FaultKind.LINK_LOSS, target="*", probability=loss),
         FaultSpec(kind=FaultKind.CORE_FAIL, target="3", node="s0",
                   at_us=(duration_us * 0.2,)),
         FaultSpec(kind=FaultKind.CORE_STALL, target="1", node="s0",
                   at_us=(duration_us * 0.3,), duration_us=2_000.0),
         FaultSpec(kind=FaultKind.ACTOR_CRASH, target="counter", node="s0",
                   at_us=(duration_us * 0.4,)),
         FaultSpec(kind=FaultKind.RING_STALL, target="s0.chan.to_host",
                   at_us=(duration_us * 0.5,), duration_us=1_000.0)),
        trace)

    def setup(bed):
        runtime = bed.servers["s0"].runtime
        worker = bed.app("rta").nodes["s0"]
        client = bed.clients["client"].scripted()

        def make(i):
            tuples = ([f"#tag{i} trending now"] if i % 2 == 0
                      else [f"plain tuple {i}"])
            return "s0", "rta-tuple", {"tuples": tuples}, 128

        def judge(_):
            sched = runtime.nic_scheduler
            return {"invariants": {
                "core_rebalanced": (sched.core_health.alive_count()
                                    == sched.num_cores - 1
                                    and sched.fcfs_cores() >= 1),
                "tuples_processed": worker.tuples_in > 0,
            }}

        spawn(bed.sim, paced(client, n_requests, send_gap_us, make),
              name="chaos-driver")
        return client, judge

    return run_leg("rta", spec, n_requests, setup)


# -- the registry -------------------------------------------------------------
@dataclass(frozen=True)
class Study:
    """One acceptance leg as registry data.

    ``runner`` names a ``run_*`` function in ``module``, resolved lazily
    (the steering, SLO and tenant modules import this one).  ``quick``
    is the single ``--quick`` preset that ``repro check``, ``repro slo``
    and ``repro tenant-study`` share.  A ``composite`` study runs several
    legs and returns one plain record instead of a :class:`ChaosReport`,
    so it has no single trace to export.
    """

    module: str
    runner: str
    quick: Dict[str, float]
    seed: int = 42
    composite: bool = False

    @property
    def run(self) -> Callable:
        module = import_module(f"{__package__}.{self.module}")
        return getattr(module, self.runner)


_CHAOS_QUICK = {"duration_us": 10_000.0}

#: leg name -> study; ``grids.chaos_point(name, **kwargs)`` runs one.
STUDIES: Dict[str, Study] = {
    "rkv": Study("chaos_study", "run_rkv_chaos", _CHAOS_QUICK),
    "dt": Study("chaos_study", "run_dt_chaos", _CHAOS_QUICK),
    "rta": Study("chaos_study", "run_rta_chaos", _CHAOS_QUICK),
    "steering": Study("steering_study", "run_rebalance_chaos", {
        "duration_us": 20_000.0, "n_requests": 40, "send_gap_us": 300.0,
        "notice_us": 3_000.0}),
    # shrunk but still closing the breach -> migrate -> recover loop, so
    # the pulse/SLO fingerprint terms stay exercised
    "slo": Study("slo_study", "run_slo_chaos", {
        "duration_us": 25_000.0, "n_requests": 55,
        "aggressor_stop_us": 20_000.0}),
    # shrunk three-leg run; still long enough for the flood to degrade
    # the flat leg >= 2x and for the shares to hold the isolated leg
    # within 25% of solo
    "tenant": Study("tenant_study", "run_tenant_study", {
        "duration_us": 20_000.0, "n_requests": 30,
        "aggressor_stop_us": 18_000.0}, composite=True),
}
