"""Parallel-in-time execution: rack-sharded conservative simulation.

A multi-rack :class:`~repro.scenario.spec.ScenarioSpec` decomposes
naturally along its spine: every packet that crosses racks pays at least
the inter-rack propagation delay, so a rack can safely simulate
``lookahead = inter_rack_propagation_us`` beyond the earliest event of
any *other* rack without risk of receiving a message from its past.
That is the classic conservative (Chandy–Misra–Bryant) synchronization
argument, with the fabric's physics supplying the lookahead.

:class:`RackShardExecutor` builds one independent
:class:`~repro.sim.Simulator` per rack — each with its own ToR, a local
replica of the spine switch, and only its own servers, clients and
fleets — and advances them in lockstep windows::

    t_min  = min over shards of next_event_time()
    bound  = min(t_min + lookahead, horizon)
    every shard runs to ``bound``; cross-rack frames are exchanged

The cross-rack hand-off happens at *transmit* time: the shard-local
spine uplink (:class:`_BoundaryLink`) computes the exact spine arrival
time ``deliver_at`` with the same queueing/serialization/fault logic as
:meth:`~repro.net.link.Link.transmit`, but instead of posting a local
delivery event it exports ``(deliver_at, packet)`` to the coordinator.
Because ``deliver_at >= transmit_time + serialization + lookahead`` and
every transmit in a window fires at or after ``t_min``, exported frames
always land strictly beyond the window bound — the destination shard
has never advanced past them, and the injection is an ordinary
``post_at`` into its future.

Equivalence is the contract, not an aspiration: a sharded run produces
the *same* :class:`~repro.scenario.run.ScenarioResult` fingerprint as
the serial single-simulator run of the same spec, and the merged
per-event streams match under :func:`repro.check.canonical_digest`
(the spec validation layer rejects features — steering, tracing,
shared fault streams, global fault budgets — that cannot decompose).
Each shard is built by the serial :func:`~repro.scenario.build.build`
over its rack's fabric and reported by the serial ``_collect``, so the
two decompositions share one construction and one accounting path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..net.link import Link
from ..net.packet import Packet
from ..net.switch import SpineSwitch
from ..net.fabric import DEFAULT_UPLINK_MULTIPLIER, Fabric
from ..scenario.build import Scenario, build
from ..scenario.run import ScenarioResult, _collect
from ..scenario.spec import ScenarioSpec
from ..sim import Simulator


class _BoundaryLink(Link):
    """The shard-local replica of a rack's ``spine-up`` link.

    Transmit semantics are byte-for-byte those of
    :meth:`Link.transmit` — output-queue serialization, frame counters,
    per-frame fault consultation — except the delivery event: the frame
    is handed to the shard's export callback together with its computed
    spine arrival time instead of being posted locally.  Exporting at
    transmit time (not delivery time) is what keeps the conservative
    window sound: ``deliver_at`` always exceeds the current bound.
    """

    def __init__(self, sim: Simulator, bandwidth_gbps: float, export,
                 propagation_us: float = 0.0, name: str = "spine-up"):
        super().__init__(sim, bandwidth_gbps, receiver=None,
                         propagation_us=propagation_us, name=name)
        self._export = export

    def transmit(self, packet: Packet) -> float:
        start = max(self.sim.now, self._next_free)
        done = start + self.serialization_us(packet.size)
        self._next_free = done
        deliver_at = done + self.propagation_us
        self.frames_sent += 1
        self.bytes_sent += packet.size
        fate = None
        if self.fault_plane is not None:
            fate = self.fault_plane.frame_fate(self.name, packet)
        if fate is not None:
            # same wire occupancy as a delivered frame; never handed up
            if fate == "drop":
                self.frames_dropped += 1
            else:
                self.frames_corrupted += 1
            return deliver_at
        self._export(deliver_at, packet)
        return deliver_at


class _ShardFabric(Fabric):
    """One rack's slice of a multi-rack fabric.

    A single-rack :class:`Fabric` plus — when the *global* spec is
    multi-rack — a local :class:`SpineSwitch` replica reachable over a
    :class:`_BoundaryLink` uplink.  Link and switch names match the
    global fabric exactly (``{rack}.tor``, ``{rack}.spine-up``,
    ``{rack}.spine-down``) so fault targeting and merged counters line
    up with a serial run.  Only the rack's own servers and clients are
    placed, which is what makes :func:`build` construct just this rack.
    """

    def __init__(self, sim: Simulator, spec: ScenarioSpec, rack: str,
                 export):
        fabric = spec.fabric
        super().__init__(
            sim, bandwidth_gbps=fabric.bandwidth_gbps,
            propagation_us=fabric.propagation_us,
            racks=(rack,),
            tor_latency_us=fabric.tor_latency_us,
            spine_latency_us=fabric.spine_latency_us,
            uplink_gbps=fabric.uplink_gbps,
            inter_rack_propagation_us=fabric.inter_rack_propagation_us)
        if spec.is_multi_rack():
            tor = self.switches[rack]
            tor.name = f"{rack}.tor"
            up_bw = (fabric.uplink_gbps
                     or fabric.bandwidth_gbps * DEFAULT_UPLINK_MULTIPLIER)
            self.spine = SpineSwitch(
                sim, forwarding_latency_us=fabric.spine_latency_us)
            up = _BoundaryLink(
                sim, up_bw, export=export,
                propagation_us=fabric.inter_rack_propagation_us,
                name=f"{rack}.spine-up")
            down = Link(sim, up_bw, receiver=tor.deliver_local,
                        propagation_us=fabric.inter_rack_propagation_us,
                        name=f"{rack}.spine-down")
            tor.uplink = up
            self.spine.attach_rack(rack, down)
            self._spine_links.extend((up, down))
        local = next(r for r in spec.racks if r.name == rack)
        for node in local.servers + local.clients:
            self.place(node.name, rack)


class _Shard:
    """A rack's built scenario plus its cross-rack outbox."""

    def __init__(self, spec: ScenarioSpec, rack: str, index: int,
                 rack_of: Dict[str, str]):
        self.rack = rack
        self.index = index
        #: (deliver_at, transmit_time, src index, export order, dst rack,
        #: packet) — the sort key reproduces the serial posting order
        self.outbox: List[Tuple[float, float, int, int, str, Packet]] = []
        self._order = 0
        self._rack_of = rack_of
        self.scenario: Scenario = build(spec, network=_ShardFabric(
            Simulator(), spec, rack, self._export))
        self.sim = self.scenario.sim

    def _export(self, deliver_at: float, packet: Packet) -> None:
        dst_rack = self._rack_of.get(packet.dst)
        if dst_rack is None or dst_rack == self.rack:
            # unknown destination (the global spine would drop it) or a
            # frame the ToR sent up for a local node (cannot happen via
            # ToR logic, kept for safety): deliver to the local replica,
            # exactly where a plain Link would have
            self.inject(deliver_at, packet)
        else:
            self.outbox.append((deliver_at, self.sim.now, self.index,
                                self._order, dst_rack, packet))
            self._order += 1

    def inject(self, when: float, packet: Packet) -> None:
        """Deliver a frame to the local spine replica at ``when``."""
        self.sim.post_at(when, self.scenario.network.spine.ingest, packet)


def _transfer_key(entry: Tuple) -> Tuple:
    # (deliver_at, transmit time, src shard, export order): the serial
    # run posts spine arrivals in transmit order, so ties on deliver_at
    # resolve by when (then where) the frame left its rack
    return entry[:4]


def serial_twin(spec: ScenarioSpec) -> ScenarioSpec:
    """The single-simulator spec whose run a by-rack run of ``spec``
    must equal: the same spec with ``shards="none"`` and its fault
    streams resolved the way the sharded run resolves them."""
    ex = replace(spec.execution, shards="by-rack")
    return replace(spec, execution=replace(
        ex, shards="none", fault_streams=ex.resolved_fault_streams()))


class RackShardExecutor:
    """Conservative parallel-in-time executor over a rack decomposition.

    ``run()`` returns a :class:`ScenarioResult` whose ``fingerprint()``
    is bit-identical to ``run_scenario(serial_twin(spec))``.  ``rounds``
    and ``transfers`` report the number of synchronization windows and
    cross-rack frames after a run.  ``lookahead_us`` may only tighten
    the fabric-derived window (a seam for stress-testing the protocol).
    """

    def __init__(self, spec: ScenarioSpec,
                 duration_us: Optional[float] = None,
                 lookahead_us: Optional[float] = None):
        ex = spec.execution
        if ex.shards != "by-rack":
            # apply by-rack validation rules even when the caller hands
            # us a serial spec directly
            spec = replace(spec, execution=replace(ex, shards="by-rack"))
        spec.validate()
        self.spec = spec
        self.racks = [r.name for r in spec.racks]
        self.horizon = (duration_us if duration_us is not None
                        else spec.duration_us)
        # the fabric's inter-rack propagation is the largest provably
        # safe window
        base = spec.fabric.inter_rack_propagation_us
        self.lookahead_us = (base if lookahead_us is None
                             else min(lookahead_us, base))
        self.rounds = 0
        self.transfers = 0

    def run(self) -> ScenarioResult:
        self.rounds = 0
        self.transfers = 0
        spec = self.spec
        rack_of = {name: spec.rack_of(name)
                   for name in spec.server_names() + spec.client_names()}
        # every shard is built before the first window runs
        shards = [_Shard(spec, rack, idx, rack_of)
                  for idx, rack in enumerate(self.racks)]
        by_rack = {shard.rack: shard for shard in shards}
        horizon = self.horizon
        while len(shards) > 1:
            times = [shard.sim.next_event_time() for shard in shards]
            t_min = min((t for t in times if t is not None), default=None)
            if t_min is None or t_min > horizon:
                break
            bound = min(t_min + self.lookahead_us, horizon)
            for shard in shards:
                shard.sim.run(until=bound)
            transfers: List[Tuple] = []
            for shard in shards:
                transfers.extend(shard.outbox)
                shard.outbox = []
            transfers.sort(key=_transfer_key)
            for when, _tau, _src, _order, rack, packet in transfers:
                by_rack[rack].inject(when, packet)
            self.transfers += len(transfers)
            self.rounds += 1
        for shard in shards:
            shard.scenario.run(until=horizon)
            shard.scenario.stop()
        return _collect([shard.scenario for shard in shards], horizon)
