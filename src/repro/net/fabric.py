"""The fabric layer: racks of nodes behind ToRs, joined by a spine.

A :class:`Fabric` generalises the paper's single-ToR star (§2.2.1) to a
two-tier datacenter topology: every rack gets its own per-rack subnet
behind a :class:`~repro.net.switch.ToRSwitch`, and with more than one
rack an aggregation :class:`~repro.net.switch.SpineSwitch` joins the
ToRs.  Intra-rack traffic takes the classic node→ToR→node path;
cross-rack traffic additionally crosses ToR→spine→ToR over longer
(inter-rack propagation) links, so cross-rack RTTs are strictly longer
than intra-rack ones.

With one rack the fabric is the paper's star: one ToR named ``tor``
whatever the rack is called, and no spine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..sim import Simulator
from .link import Link
from .packet import Packet
from .switch import (
    DEFAULT_SPINE_LATENCY_US,
    DEFAULT_SWITCH_LATENCY_US,
    SpineSwitch,
    ToRSwitch,
)

#: One-way propagation of the longer ToR↔spine runs, microseconds.
DEFAULT_INTER_RACK_PROPAGATION_US = 1.2
#: ToR uplinks are usually provisioned fatter than host ports; the
#: default oversubscription keeps a 4:1-ish rack at full tilt.
DEFAULT_UPLINK_MULTIPLIER = 4.0


class Fabric:
    """Multi-rack topology: per-rack ToRs, optionally behind one spine.

    Nodes are anything exposing ``receive(packet)``.  :meth:`attach`
    builds the host→ToR and ToR→host links and returns the host-side
    uplink so the node can transmit.  Which rack a node lands in is
    resolved in priority order: the explicit ``rack=`` argument, a prior
    :meth:`place` registration, else the first rack.
    """

    def __init__(self, sim: Simulator, bandwidth_gbps: float,
                 propagation_us: float = 0.3,
                 racks: Sequence[str] = ("rack0",),
                 tor_latency_us: float = DEFAULT_SWITCH_LATENCY_US,
                 spine_latency_us: float = DEFAULT_SPINE_LATENCY_US,
                 uplink_gbps: Optional[float] = None,
                 inter_rack_propagation_us: float =
                 DEFAULT_INTER_RACK_PROPAGATION_US):
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_us = propagation_us
        self.rack_names: List[str] = list(racks) or ["rack0"]
        if len(set(self.rack_names)) != len(self.rack_names):
            raise ValueError("duplicate rack names")
        self.inter_rack_propagation_us = inter_rack_propagation_us
        self.switches: Dict[str, ToRSwitch] = {}
        self._uplinks: Dict[str, Link] = {}
        self._placement: Dict[str, str] = {}
        self._node_rack: Dict[str, str] = {}
        self.spine: Optional[SpineSwitch] = None
        self._spine_links: List[Link] = []
        multi = len(self.rack_names) > 1
        if multi:
            self.spine = SpineSwitch(
                sim, forwarding_latency_us=spine_latency_us)
        up_bw = uplink_gbps or bandwidth_gbps * DEFAULT_UPLINK_MULTIPLIER
        for rack in self.rack_names:
            tor = ToRSwitch(sim, name=f"{rack}.tor" if multi else "tor",
                            forwarding_latency_us=tor_latency_us)
            self.switches[rack] = tor
            if multi:
                up = Link(sim, up_bw, receiver=self.spine.ingest,
                          propagation_us=inter_rack_propagation_us,
                          name=f"{rack}.spine-up")
                down = Link(sim, up_bw, receiver=tor.deliver_local,
                            propagation_us=inter_rack_propagation_us,
                            name=f"{rack}.spine-down")
                tor.uplink = up
                self.spine.attach_rack(rack, down)
                self._spine_links.extend((up, down))

    # -- placement ------------------------------------------------------------
    def place(self, name: str, rack: str) -> None:
        """Pre-register which rack ``name`` will attach into."""
        if rack not in self.switches:
            raise ValueError(f"unknown rack {rack!r} "
                             f"(have {self.rack_names})")
        self._placement[name] = rack

    def rack_of(self, name: str) -> str:
        """The rack an attached node lives in."""
        return self._node_rack[name]

    # -- wiring ---------------------------------------------------------------
    def attach(self, name: str, receiver: Callable[[Packet], None],
               bandwidth_gbps: float = None, rack: Optional[str] = None
               ) -> Link:
        rack = rack or self._placement.get(name) or self.rack_names[0]
        tor = self.switches.get(rack)
        if tor is None:
            raise ValueError(f"unknown rack {rack!r} "
                             f"(have {self.rack_names})")
        bw = bandwidth_gbps or self.bandwidth_gbps
        downlink = Link(self.sim, bw, receiver=receiver,
                        propagation_us=self.propagation_us,
                        name=f"{name}.down")
        tor.attach(name, downlink)
        uplink = Link(self.sim, bw, receiver=tor.ingest,
                      propagation_us=self.propagation_us,
                      name=f"{name}.up")
        self._uplinks[name] = uplink
        self._node_rack[name] = rack
        if self.spine is not None:
            self.spine.register(name, rack)
        return uplink

    def uplink(self, name: str) -> Link:
        return self._uplinks[name]

    def egress(self, name: str) -> Link:
        """The ToR→node downlink for an attached node, any rack."""
        return self.switches[self._node_rack[name]]._egress[name]

    def links(self) -> Iterator[Link]:
        """Every link in the fabric: node uplinks, ToR downlinks, then
        the ToR↔spine pairs (the order FaultPlane wiring relies on)."""
        yield from self._uplinks.values()
        for rack in self.rack_names:
            yield from self.switches[rack]._egress.values()
        yield from self._spine_links

    # -- traffic ---------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit from ``packet.src``'s uplink."""
        self._uplinks[packet.src].transmit(packet)

    # -- single-rack compatibility ---------------------------------------------
    @property
    def switch(self) -> ToRSwitch:
        """The sole ToR of a single-rack fabric (the seed's ``.switch``)."""
        if len(self.rack_names) != 1:
            raise AttributeError(
                "a multi-rack fabric has no single .switch; use "
                ".switches[rack] or .egress(node)")
        return self.switches[self.rack_names[0]]

