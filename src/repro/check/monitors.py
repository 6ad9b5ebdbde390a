"""Runtime invariant monitors (the CheckPlane's monitor catalog).

Each monitor watches one component and yields human-readable violation
messages from :meth:`check`.  Monitors are *pure observers*: they never
schedule events or charge virtual time, so an instrumented run produces
bit-identical results to an uninstrumented one.  They are driven from
:class:`~repro.check.plane.CheckPlane.after_step` every N engine events
(and, for Paxos, synchronously at each commit).

The invariants:

* **SchedulerMonitor** — DRR quantum conservation: every µs of deficit
  granted is spent on execution, forfeited when an actor leaves the DRR
  group, or still outstanding on a runnable actor
  (``granted == spent + forfeited + Σ outstanding``); non-DRR actors
  carry no deficit; no runnable DRR actor with backlog goes unserved
  longer than the starvation bound.
* **DmoMonitor** — every object lives in exactly one table, its
  ``location`` field agrees with the table holding it, and each actor's
  region satisfies ``0 <= used <= capacity`` with ``used`` equal to the
  actor's live object bytes.
* **RingMonitor** — slot conservation
  (``free + buffered + unsynced_consumed == slots``),
  ``produced == consumed + buffered``, and non-decreasing visibility
  times along the buffer (the DMA ordering guarantee of §3.5).
* **ChannelMonitor** — per-key release sequence is monotone, released
  counts track ``expected`` exactly (at-most-once, in-order delivery),
  and nothing below the release point is ever stashed.
* **PaxosMonitor** — at most one value is ever chosen per log instance
  across a replica group (the Paxos safety property).
* **SteeringMonitor** — every steered request reaches the backend that
  owns its key in the request's epoch, per-flow affinity is stable
  within an epoch, and no request is handed to two different backends
  in the same epoch (steering safety during live migration).
* **PulseMonitor** — the PulsePlane's sampling pass schedules nothing
  (zero virtual-time cost), samples land on the period lattice, and SLO
  breach accounting is conservative: every counted breach is backed by
  a recorded transition with burns over the alert threshold.
* **RequestMonitor** — request accounting at every client port: each
  client's ledger balances (``sent == answered + in_flight + lost``),
  and each port's ``received`` equals its clients' answers plus
  duplicates plus the packets no client claimed, so a reply that
  reaches its client is counted exactly once.
* **TenantMonitor** — multi-tenant isolation (docs/TENANCY.md): the
  per-tenant DRR ledgers conserve quantum tenant by tenant
  (``granted == spent + forfeited + Σ outstanding`` for each tenant),
  no tenant spends more than it was granted (share overrun), the
  per-tenant ledgers sum to the scheduler's global ledger, no DMO
  access ever crosses a tenant boundary
  (``dmo.cross_tenant_denials`` stays 0), and each tenant's live DMO
  bytes agree with the usage ledger and respect its byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class Violation:
    """One invariant violation, stamped with its virtual-time context."""

    monitor: str
    component: str
    message: str
    time_us: float
    #: trace context (trace_id, span_id) active when the violation was
    #: raised, when a tracer was installed
    trace: Optional[Tuple[int, int]] = None

    def __str__(self) -> str:
        where = f" [{self.component}]" if self.component else ""
        return (f"invariant violation at t={self.time_us:.2f}µs "
                f"({self.monitor}{where}): {self.message}")


class InvariantViolation(RuntimeError):
    """Raised by a strict CheckPlane when a monitor reports a violation."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class SchedulerMonitor:
    """DRR quantum conservation + no-starvation for a NicScheduler."""

    name = "scheduler"

    def __init__(self, scheduler, starvation_bound_us: float = 50_000.0,
                 tolerance_us: float = 1e-3):
        self.scheduler = scheduler
        self.component = getattr(scheduler, "node_name", "nic")
        self.starvation_bound_us = starvation_bound_us
        self.tolerance_us = tolerance_us
        #: actor name -> (last time progress was observed, requests_seen
        #: at that time); progress resets the starvation clock
        self._progress: Dict[str, Tuple[float, int]] = {}
        self._starved: set = set()

    def check(self, now: float) -> Iterator[str]:
        sched = self.scheduler
        outstanding = sum(a.deficit for a in sched.drr_runnable)
        granted = sched.quantum_granted_us
        spent = sched.deficit_spent_us
        forfeited = sched.deficit_forfeited_us
        imbalance = granted - spent - forfeited - outstanding
        tol = max(self.tolerance_us, 1e-9 * abs(granted))
        if abs(imbalance) > tol:
            yield (f"DRR quantum not conserved: granted {granted:.3f}µs != "
                   f"spent {spent:.3f} + forfeited {forfeited:.3f} + "
                   f"outstanding {outstanding:.3f} (off by {imbalance:+.3f}µs)")
        for actor in sched.actors:
            if not actor.is_drr and actor.deficit:
                yield (f"actor {actor.name!r} holds {actor.deficit:.3f}µs of "
                       f"deficit outside the DRR group")
        # No-starvation: a runnable DRR actor with backlog must make
        # progress (requests_seen advances) within the bound.
        runnable = {a.name for a in sched.drr_runnable}
        for actor in sched.drr_runnable:
            if not actor.mailbox or not actor.schedulable:
                self._progress.pop(actor.name, None)
                continue
            last = self._progress.get(actor.name)
            if last is None or actor.requests_seen != last[1]:
                self._progress[actor.name] = (now, actor.requests_seen)
                self._starved.discard(actor.name)
                continue
            waited = now - last[0]
            if waited > self.starvation_bound_us and actor.name not in self._starved:
                self._starved.add(actor.name)
                yield (f"DRR actor {actor.name!r} starved: "
                       f"{len(actor.mailbox)} queued requests and no "
                       f"progress for {waited:.0f}µs "
                       f"(bound {self.starvation_bound_us:.0f}µs)")
        for gone in [n for n in self._progress if n not in runnable]:
            self._progress.pop(gone, None)
            self._starved.discard(gone)


class DmoMonitor:
    """Object/region containment for a DmoManager."""

    name = "dmo"

    def __init__(self, dmo, component: str = ""):
        self.dmo = dmo
        self.component = component

    def check(self, now: float) -> Iterator[str]:
        dmo = self.dmo
        index = dmo.index
        seen: Dict[int, Any] = {}
        usage: Dict[str, int] = {}
        for location, table in dmo.tables.items():
            for obj in table.objects():
                if index.get(obj.object_id) is not obj:
                    yield (f"object {obj.object_id} sits in the "
                           f"{location.value} table but the translation "
                           f"index does not map its id to it")
                if obj.object_id in seen:
                    yield (f"object {obj.object_id} (actor {obj.actor!r}) "
                           f"present in both the {seen[obj.object_id].value} "
                           f"and {location.value} tables")
                else:
                    seen[obj.object_id] = location
                if obj.location is not location:
                    yield (f"object {obj.object_id} sits in the "
                           f"{location.value} table but claims location "
                           f"{obj.location.value}")
                usage[obj.actor] = usage.get(obj.actor, 0) + obj.size
        for object_id in sorted(set(index) - set(seen)):
            yield (f"object {object_id} is in the translation index but "
                   f"in neither object table")
        for actor, region in dmo.regions.items():
            used = getattr(region, "used", None)
            capacity = getattr(region, "capacity", None)
            if used is None or capacity is None:
                continue
            if not 0 <= used <= capacity:
                yield (f"region of {actor!r} out of bounds: "
                       f"used {used}B not in [0, {capacity}]B")
            live = usage.get(actor, 0)
            if used != live:
                yield (f"region of {actor!r} accounts {used}B but live "
                       f"objects total {live}B")


class RingMonitor:
    """Head/tail and slot accounting for one channel Ring."""

    name = "ring"

    def __init__(self, ring):
        self.ring = ring
        self.component = ring.name

    def check(self, now: float) -> Iterator[str]:
        ring = self.ring
        buffered = len(ring._buffer)
        if ring.produced != ring.consumed + buffered:
            yield (f"slot leak: produced {ring.produced} != consumed "
                   f"{ring.consumed} + buffered {buffered}")
        total = ring._producer_free + buffered + ring._consumed_since_sync
        if total != ring.slots:
            yield (f"free-slot accounting broken: free "
                   f"{ring._producer_free} + buffered {buffered} + "
                   f"unsynced {ring._consumed_since_sync} != "
                   f"{ring.slots} slots")
        if not 0 <= ring._producer_free <= ring.slots:
            yield (f"producer free-count {ring._producer_free} outside "
                   f"[0, {ring.slots}]")
        last_visible = -1.0
        for _msg, _checksum, visible_at in ring._buffer:
            if visible_at < last_visible:
                yield (f"visibility order broken: slot visible at "
                       f"{visible_at:.3f}µs behind predecessor at "
                       f"{last_visible:.3f}µs")
                break
            last_visible = visible_at


class ChannelMonitor:
    """Sequence monotonicity + at-most-once delivery for a ReliableChannel."""

    name = "channel"

    def __init__(self, rchannel):
        self.rchannel = rchannel
        self.component = rchannel.channel.to_host.node_name
        #: direction -> key -> highest release point seen so far
        self._high: Dict[str, Dict[str, int]] = {}

    def check(self, now: float) -> Iterator[str]:
        for direction, state in self.rchannel._dirs.items():
            high = self._high.setdefault(direction, {})
            for key, expected in state.expected.items():
                prev = high.get(key, 0)
                if expected < prev:
                    yield (f"{direction} release sequence for key {key!r} "
                           f"went backwards: {expected} after {prev}")
                else:
                    high[key] = expected
                released = state.released.get(key, 0)
                if released != expected:
                    yield (f"{direction} delivery for key {key!r} broken: "
                           f"released {released} messages but release "
                           f"point is {expected} (at-most-once/in-order "
                           f"breach)")
            for (key, seq) in state.stash:
                if seq < state.expected.get(key, 0):
                    yield (f"{direction} stash holds key {key!r} seq {seq} "
                           f"below its release point "
                           f"{state.expected.get(key, 0)} (duplicate kept)")


class _GroupCommitHook:
    """Installed as ``node.checker`` — forwards commits to the monitor."""

    __slots__ = ("monitor", "group")

    def __init__(self, monitor: "PaxosMonitor", group: str):
        self.monitor = monitor
        self.group = group

    def note_commit(self, node_name: str, instance: int, value: Any) -> None:
        self.monitor.on_commit(self.group, node_name, instance, value)


class PaxosMonitor:
    """Single-value-per-slot across every watched replica group.

    Commits are checked twice: synchronously via the node's ``checker``
    hook (so a conflicting commit raises inside the offending call
    stack, with the handler's span still open) and by a periodic rescan
    of every replica's log (catching direct log corruption).
    """

    name = "paxos"

    def __init__(self, plane=None):
        #: back-reference for synchronous reporting; set by CheckPlane
        self.plane = plane
        self.component = ""
        self.groups: Dict[str, List[Any]] = {}
        #: (group, instance) -> (value, first committing node)
        self._chosen: Dict[Tuple[str, int], Tuple[Any, str]] = {}
        self._pending: List[str] = []

    def watch(self, group: str, node) -> None:
        """Register one replica; installs the node's commit hook."""
        members = self.groups.setdefault(group, [])
        if node not in members:
            members.append(node)
        node.checker = _GroupCommitHook(self, group)

    def on_commit(self, group: str, node_name: str, instance: int,
                  value: Any) -> None:
        key = (group, instance)
        prior = self._chosen.get(key)
        if prior is None:
            self._chosen[key] = (value, node_name)
            return
        if prior[0] != value:
            message = (f"group {group!r} instance {instance}: node "
                       f"{node_name!r} committed {value!r} but node "
                       f"{prior[1]!r} already committed {prior[0]!r}")
            if self.plane is not None:
                self.plane.report(self, message, component=group)
            else:
                self._pending.append(message)

    def check(self, now: float) -> Iterator[str]:
        pending, self._pending = self._pending, []
        yield from pending
        for group, members in self.groups.items():
            chosen: Dict[int, Tuple[Any, str]] = {}
            for node in members:
                for instance, entry in node.log.items():
                    if not entry.committed:
                        continue
                    prior = chosen.get(instance)
                    if prior is None:
                        chosen[instance] = (entry.value, node.name)
                    elif prior[0] != entry.value:
                        yield (f"group {group!r} instance {instance}: "
                               f"log of {node.name!r} holds {entry.value!r} "
                               f"but {prior[1]!r} holds {prior[0]!r}")


class SteeringMonitor:
    """Steering safety across epochs (SteerPlane, §5 extension).

    Scans the controller's decision and delivery ledgers incrementally:

    * **ownership** — every routing decision and every delivery lands on
      the backend that owns the flow's key *in the epoch stamped on the
      request* (forwarded packets are restamped with the post-repoint
      epoch, so the forwarding window satisfies this by construction);
    * **affinity** — within one epoch a flow never changes backend;
    * **exactly-once** — no request uid is handed to a live actor on two
      *different* backends in the *same* epoch (a retransmit answered by
      the same backend is the retry path, not a violation; a re-delivery
      in a later epoch is the client restearing after a move).
    """

    name = "steering"

    def __init__(self, controller):
        self.controller = controller
        self.component = "steerplane"
        self._decision_idx = 0
        self._delivery_idx = 0
        #: (service, flow, epoch) -> backend pinned first
        self._affinity: Dict[Tuple[str, str, int], str] = {}
        #: (service, uid) -> {epoch: backend first delivered to}
        self._delivered: Dict[Tuple[str, Any], Dict[int, str]] = {}

    def _owner_ok(self, service: str, epoch: int, flow: str,
                  backend: str) -> Optional[str]:
        owner = self.controller.owner_at(service, epoch, flow)
        if owner is not None and owner != backend:
            return (f"service {service!r} epoch {epoch} flow {flow!r}: "
                    f"routed to {backend!r} but epoch owner is {owner!r}")
        return None

    def check(self, now: float) -> Iterator[str]:
        decisions = self.controller.decisions
        while self._decision_idx < len(decisions):
            _, service, flow, backend, epoch = decisions[self._decision_idx]
            self._decision_idx += 1
            bad = self._owner_ok(service, epoch, flow, backend)
            if bad is not None:
                yield "decision: " + bad
            key = (service, flow, epoch)
            pinned = self._affinity.setdefault(key, backend)
            if pinned != backend:
                yield (f"affinity: service {service!r} flow {flow!r} "
                       f"epoch {epoch}: pinned to {pinned!r} but steered "
                       f"to {backend!r}")
        deliveries = self.controller.deliveries
        while self._delivery_idx < len(deliveries):
            (_, service, uid, backend,
             epoch, flow) = deliveries[self._delivery_idx]
            self._delivery_idx += 1
            bad = self._owner_ok(service, epoch, flow, backend)
            if bad is not None:
                yield "delivery: " + bad
            if uid is None:
                continue
            seen = self._delivered.setdefault((service, uid), {})
            first = seen.setdefault(epoch, backend)
            if first != backend:
                yield (f"exactly-once: service {service!r} request "
                       f"{uid!r} epoch {epoch}: delivered to {backend!r} "
                       f"after {first!r}")


class RequestMonitor:
    """Request accounting at the client ports.

    * **ledger** — for every client, ``sent == answered + in_flight +
      lost``: each request is answered, still awaited, or given up;
    * **replies** — for every port, ``received == Σ (answered +
      duplicates) + unmatched``: each packet the node receives is one
      client's answer or duplicate, or claimed by no client.
    """

    name = "requests"

    def __init__(self, ports):
        #: port name -> ClientPort; clients made after wiring count too
        self.ports = ports
        self.component = "clients"

    def check(self, now: float) -> Iterator[str]:
        for name, port in self.ports.items():
            claimed = 0
            for client in port.clients.values():
                in_flight, lost = client.in_flight, client.lost
                if client.sent != client.answered + in_flight + lost:
                    yield (f"ledger: client {client.tag!r} sent "
                           f"{client.sent} != answered {client.answered} "
                           f"+ in flight {in_flight} + lost {lost}")
                claimed += client.answered + client.duplicates
            if port.received != claimed + port.unmatched:
                yield (f"replies: port {name!r} received {port.received} "
                       f"!= answered+duplicates {claimed} + unmatched "
                       f"{port.unmatched}")


class PulseMonitor:
    """PulsePlane zero-cost + conservative-accounting invariants.

    * **passivity** — the sampling pass (probes + SLO evaluation) never
      schedules an event: the plane's ``passive_schedules`` counter (the
      engine's sequence number diffed across each pass) stays zero.
    * **lattice** — samples land exactly on the period lattice
      ``k * period_us`` and sample times are strictly increasing (the
      lazy sampler stamps boundaries, never wall arrival times).
    * **conservative breaches** — every counted breach/recovery is
      backed by a recorded transition whose burn rates clear (for a
      breach) the evaluator's threshold, transitions alternate
      breach/recover, and ``in_breach`` agrees with the last transition.
    """

    name = "pulse"

    def __init__(self, pulse):
        self.pulse = pulse
        self.component = "pulseplane"
        self._last_sample_us: Optional[float] = None
        #: per-evaluator count of transitions already audited
        self._audited: Dict[int, int] = {}

    def check(self, now: float) -> Iterator[str]:
        pulse = self.pulse
        if pulse.passive_schedules:
            yield (f"passivity: {pulse.passive_schedules} sampling "
                   f"pass(es) scheduled events")
        period = pulse.period_us
        last = pulse.last_sample_us
        if last is not None:
            if abs(last / period - round(last / period)) > 1e-9:
                yield (f"lattice: sample at t={last!r} is off the "
                       f"{period:g}us period lattice")
            if self._last_sample_us is not None \
                    and last < self._last_sample_us:
                yield (f"lattice: sample time went backwards "
                       f"({self._last_sample_us!r} -> {last!r})")
            self._last_sample_us = last
        for evaluator in getattr(pulse, "_evaluators", ()):
            yield from self._audit(evaluator)

    def _audit(self, ev) -> Iterator[str]:
        transitions = ev.transitions
        breaches = sum(1 for _, kind, _, _ in transitions
                       if kind == "breach")
        recoveries = len(transitions) - breaches
        if ev.breaches != breaches or ev.recoveries != recoveries:
            yield (f"accounting: slo {ev.name!r} counts "
                   f"{ev.breaches}/{ev.recoveries} breaches/recoveries "
                   f"but history records {breaches}/{recoveries}")
        start = self._audited.get(id(ev), 0)
        for idx in range(start, len(transitions)):
            t, kind, burn_fast, burn_slow = transitions[idx]
            expected = "breach" if idx % 2 == 0 else "recover"
            if kind != expected:
                yield (f"accounting: slo {ev.name!r} transition {idx} "
                       f"at t={t:g} is {kind!r}, expected {expected!r}")
            if kind == "breach" and (burn_fast < ev.burn_threshold
                                     or burn_slow < ev.burn_threshold):
                yield (f"accounting: slo {ev.name!r} breach at t={t:g} "
                       f"with burns {burn_fast:.3f}/{burn_slow:.3f} "
                       f"below threshold {ev.burn_threshold:g}")
        self._audited[id(ev)] = len(transitions)
        if transitions:
            last_kind = transitions[-1][1]
            if ev.in_breach != (last_kind == "breach"):
                yield (f"accounting: slo {ev.name!r} in_breach="
                       f"{ev.in_breach} disagrees with last transition "
                       f"{last_kind!r}")


class TenantMonitor:
    """Multi-tenant isolation invariants (docs/TENANCY.md).

    Registered by ``CheckPlane.watch_scenario`` when a spec declares
    tenants (:attr:`~repro.scenario.spec.ScenarioSpec.tenants`); one
    monitor watches every iPipe runtime in the testbed.  All checks are
    read-only scans of ledgers the scheduler and DMO layer maintain
    anyway, so the monitor adds zero virtual-time cost:

    * **per-tenant conservation** — for every tenant ``t`` on every
      scheduler, ``granted[t] == spent[t] + forfeited[t] + Σ deficit``
      of tenant-``t`` runnable actors (the per-tenant refinement of the
      SchedulerMonitor's global invariant);
    * **no share overrun** — no tenant spends quantum it was never
      granted (``spent[t] <= granted[t]``): a tenant exceeding its
      hierarchical-DRR share would have to, since grants are
      share-scaled;
    * **ledger agreement** — the per-tenant dicts sum to the
      scheduler's global conservation ledger;
    * **tenant boundary** — ``dmo.cross_tenant_denials`` stays 0; any
      increment is reported naming the offending actor and both
      tenants (from ``dmo.last_cross_tenant``);
    * **byte budgets** — each tenant's live DMO bytes (recomputed from
      the object tables) agree with the manager's usage ledger and
      never exceed the tenant's configured budget.
    """

    name = "tenancy"

    def __init__(self, tolerance_us: float = 1e-3):
        self.component = "tenantplane"
        self.tolerance_us = tolerance_us
        #: server -> runtime
        self._runtimes: Dict[str, Any] = {}
        #: server -> cross-tenant denial count already reported
        self._denials_reported: Dict[str, int] = {}

    def watch(self, server: str, runtime) -> None:
        """Register one runtime's scheduler + DMO manager."""
        self._runtimes[server] = runtime

    @property
    def watched(self) -> int:
        return len(self._runtimes)

    def check(self, now: float) -> Iterator[str]:
        for server in sorted(self._runtimes):
            runtime = self._runtimes[server]
            yield from self._check_scheduler(server, runtime.nic_scheduler)
            yield from self._check_dmo(server, runtime.dmo)

    def _check_scheduler(self, server: str, sched) -> Iterator[str]:
        granted = sched.tenant_granted_us
        spent = sched.tenant_spent_us
        forfeited = sched.tenant_forfeited_us
        outstanding: Dict[str, float] = {}
        for actor in sched.drr_runnable:
            tenant = getattr(actor, "tenant", "")
            outstanding[tenant] = outstanding.get(tenant, 0.0) + actor.deficit
        tenants = set(granted) | set(spent) | set(forfeited) | set(outstanding)
        for tenant in sorted(tenants):
            g = granted.get(tenant, 0.0)
            s = spent.get(tenant, 0.0)
            f = forfeited.get(tenant, 0.0)
            o = outstanding.get(tenant, 0.0)
            tol = max(self.tolerance_us, 1e-9 * abs(g))
            label = tenant or "implicit"
            imbalance = g - s - f - o
            if abs(imbalance) > tol:
                yield (f"tenant {label!r} on {server}: DRR quantum not "
                       f"conserved: granted {g:.3f}µs != spent {s:.3f} + "
                       f"forfeited {f:.3f} + outstanding {o:.3f} "
                       f"(off by {imbalance:+.3f}µs)")
            if s > g + tol:
                yield (f"tenant {label!r} on {server}: share overrun: "
                       f"spent {s:.3f}µs against only {g:.3f}µs granted")
        for kind, per_tenant, total in (
                ("granted", granted, sched.quantum_granted_us),
                ("spent", spent, sched.deficit_spent_us),
                ("forfeited", forfeited, sched.deficit_forfeited_us)):
            agg = sum(per_tenant.values())
            tol = max(self.tolerance_us, 1e-9 * abs(total))
            if abs(agg - total) > tol:
                yield (f"{server}: per-tenant {kind} ledger sums to "
                       f"{agg:.3f}µs but the global ledger holds "
                       f"{total:.3f}µs")

    def _check_dmo(self, server: str, dmo) -> Iterator[str]:
        denials = dmo.cross_tenant_denials
        if denials > self._denials_reported.get(server, 0):
            self._denials_reported[server] = denials
            last = dmo.last_cross_tenant
            if last is not None:
                actor, mine, owner, theirs = last
                yield (f"cross-tenant DMO access on {server}: actor "
                       f"{actor!r} (tenant {mine or 'implicit'!r}) touched "
                       f"an object of {owner!r} (tenant "
                       f"{theirs or 'implicit'!r}); {denials} denial(s) "
                       f"so far")
            else:
                yield (f"cross-tenant DMO access on {server}: "
                       f"{denials} denial(s) with no offender recorded")
        live: Dict[str, int] = {}
        for table in dmo.tables.values():
            for obj in table.objects():
                tenant = dmo.tenant_of(obj.actor)
                if tenant:
                    live[tenant] = live.get(tenant, 0) + obj.size
        ledger = dmo._tenant_used
        for tenant in sorted(set(live) | set(ledger)):
            used = ledger.get(tenant, 0)
            actual = live.get(tenant, 0)
            if used != actual:
                yield (f"tenant {tenant!r} on {server}: usage ledger "
                       f"claims {used}B but live objects total {actual}B")
            budget = dmo._tenant_budget.get(tenant)
            if budget is not None and used > budget:
                yield (f"tenant {tenant!r} on {server}: {used}B live "
                       f"exceeds the {budget}B budget")
