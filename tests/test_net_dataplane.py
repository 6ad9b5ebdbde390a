"""Dataplane tables for the fabric's switches and the steering rewrite.

Each row sends one packet into one switch entry point and names what
must come out: the egress link it leaves on (by name, the uplink
included) or a drop.  Every row also checks the switch's
``forwarded``/``dropped`` counters and the exact delivery time,
``now + forwarding_latency_us + serialization + propagation`` on an idle
link.  How the steering controller builds and repoints its tables is
tested in tests/test_steering.py; the steered table here only programs
the controller between rows and checks where the packets go.
"""

import pytest

from repro.net.link import Link
from repro.net.packet import Packet, serialization_delay_us
from repro.net.steering import SteeringController
from repro.net.switch import SpineSwitch, ToRSwitch
from repro.sim import Simulator

BANDWIDTH_GBPS = 10.0
PROPAGATION_US = 0.3
SIZE = 256
DROP = None


class _Rig:
    """A ToR (nodes s0, s1; uplink ``spine-up``) and a spine (racks r0,
    r1; s0, s1 in r0, r1s0 and s2 in r1, ``orphan`` in r9, which has no
    downlink) whose links record each frame they deliver."""

    def __init__(self, uplink: bool = True):
        self.sim = Simulator()
        self.delivered = []
        self.tor = ToRSwitch(self.sim, name="r0.tor")
        for node in ("s0", "s1"):
            self.tor.attach(node, self._link(f"to-{node}"))
        if uplink:
            self.tor.uplink = self._link("spine-up")
        self.spine = SpineSwitch(self.sim)
        for rack in ("r0", "r1"):
            self.spine.attach_rack(rack, self._link(f"down-{rack}"))
        for node, rack in (("s0", "r0"), ("s1", "r0"), ("r1s0", "r1"),
                           ("s2", "r1"), ("orphan", "r9")):
            self.spine.register(node, rack)

    def _link(self, name: str) -> Link:
        def receive(packet, name=name):
            self.delivered.append((name, self.sim.now, packet))
        return Link(self.sim, BANDWIDTH_GBPS, receiver=receive,
                    propagation_us=PROPAGATION_US, name=name)

    def send(self, switch, entry, dst: str, kind: str, steer_key=None):
        """Ingest one packet 5 µs from now through ``entry`` and check
        the counters and the delivery time; returns ``(link, packet)``
        or ``(DROP, None)``."""
        meta = {} if steer_key is None else {"steer_key": steer_key}
        packet = Packet(src="c0", dst=dst, size=SIZE, kind=kind, meta=meta)
        before = (switch.forwarded, switch.dropped)
        self.delivered.clear()
        at = self.sim.now + 5.0
        self.sim.post_at(at, entry, packet)
        self.sim.run()
        if not self.delivered:
            assert (switch.forwarded, switch.dropped) == (
                before[0], before[1] + 1)
            return DROP, None
        assert (switch.forwarded, switch.dropped) == (
            before[0] + 1, before[1])
        (name, when, out), = self.delivered
        assert when == (at + switch.forwarding_latency_us
                        + serialization_delay_us(BANDWIDTH_GBPS, SIZE)
                        + PROPAGATION_US)
        return name, out


# -- ToRSwitch.ingest: from a node port ---------------------------------------

TOR_INGEST = [
    # dst, kind, uplink attached, outcome
    ("s0", "data", False, "to-s0"),
    ("s1", "rkv-get", False, "to-s1"),
    ("s1", "rta-tuple", True, "to-s1"),       # a local node beats the uplink
    ("r1s0", "data", True, "spine-up"),       # not attached: up to the spine
    ("r1s0", "data", False, DROP),            # a standalone ToR drops it
    ("svc:kv", "kv-get", True, "spine-up"),   # a VIP with no controller
    ("svc:kv", "kv-get", False, DROP),
]


@pytest.mark.parametrize("dst, kind, uplink, outcome", TOR_INGEST)
def test_tor_ingest(dst, kind, uplink, outcome):
    rig = _Rig(uplink=uplink)
    link, packet = rig.send(rig.tor, rig.tor.ingest, dst, kind)
    assert link == outcome
    if packet is not None:
        assert (packet.dst, packet.kind) == (dst, kind)


# -- ToRSwitch.deliver_local: from the spine ----------------------------------

TOR_DELIVER_LOCAL = [
    # dst, kind, outcome; the uplink is attached in every row
    ("s0", "data", "to-s0"),
    ("s1", "rkv-put", "to-s1"),
    ("r1s0", "data", DROP),                   # never re-ascends
    ("svc:kv", "kv-get", DROP),
]


@pytest.mark.parametrize("dst, kind, outcome", TOR_DELIVER_LOCAL)
def test_tor_deliver_local(dst, kind, outcome):
    rig = _Rig()
    link, _ = rig.send(rig.tor, rig.tor.deliver_local, dst, kind)
    assert link == outcome


# -- SpineSwitch.ingest: from a ToR uplink ------------------------------------

SPINE_INGEST = [
    # dst, kind, outcome
    ("s0", "data", "down-r0"),
    ("s1", "rkv-get", "down-r0"),
    ("r1s0", "data", "down-r1"),
    ("orphan", "data", DROP),                 # its rack has no downlink
    ("ghost", "data", DROP),                  # never registered
    ("svc:kv", "kv-get", DROP),               # a VIP with no controller
]


@pytest.mark.parametrize("dst, kind, outcome", SPINE_INGEST)
def test_spine_ingest(dst, kind, outcome):
    rig = _Rig()
    link, _ = rig.send(rig.spine, rig.spine.ingest, dst, kind)
    assert link == outcome


# -- a steered VIP across two steering epochs ---------------------------------

STEERED = [
    # epoch, switch, flow key, outcome, backend, epoch of the flow's pin
    (0, "tor", "f0", "to-s0", "s0", 0),
    (0, "tor", "f1", "to-s1", "s1", 0),
    (0, "tor", "f4", "to-s0", "s0", 0),
    (0, "spine", "f2", "down-r0", "s1", 0),
    # s0 moves to s2 in rack r1: epoch 1
    (1, "tor", "f4", "to-s0", "s0", 0),       # pinned: the forwarding window
    (1, "tor", "f1", "to-s1", "s1", 0),
    (1, "tor", "f5", "spine-up", "s2", 1),    # a new flow on s0's slots
    (1, "tor", "f3", "to-s1", "s1", 1),       # a new flow on s1's slots
    (1, "spine", "f7", "down-r1", "s2", 1),
]


def test_steered_vip_across_two_epochs():
    rig = _Rig()
    controller = SteeringController(rig.sim)
    controller.add_service("kv", ["s0", "s1"], table_size=13)
    controller.install(rig.tor)
    controller.install(rig.spine)
    switches = {"tor": (rig.tor, rig.tor.ingest),
                "spine": (rig.spine, rig.spine.ingest)}
    for epoch, where, flow, outcome, backend, pinned in STEERED:
        if epoch > controller.service("kv").epoch:
            assert controller.replace_backend("kv", "s0", "s2") == epoch
        switch, entry = switches[where]
        link, packet = rig.send(switch, entry, "svc:kv", "kv-get",
                                steer_key=flow)
        row = (epoch, where, flow)
        assert link == outcome, row
        assert packet.dst == backend, row
        assert packet.meta["steer_service"] == "kv", row
        assert packet.meta["steer_epoch"] == pinned, row
    assert controller.steered == len(STEERED)
    assert controller.pinned_hits == 2
