"""Tests for the multi-rack fabric: routing, latency ordering, drops."""

import pytest

from repro.net import Fabric, Packet
from repro.sim import Simulator


def _collector(sim, log, name):
    def receive(packet):
        log.append((name, packet.dst, sim.now))
    return receive


# -- single-rack compatibility ----------------------------------------------

def test_single_rack_network_is_the_seed_star():
    sim = Simulator()
    net = Fabric(sim, bandwidth_gbps=10)
    log = []
    a_up = net.attach("a", _collector(sim, log, "a"))
    net.attach("b", _collector(sim, log, "b"))
    # seed link naming and the sole-ToR compatibility surface
    assert a_up.name == "a.up"
    assert net.egress("a").name == "a.down"
    assert net.switch.name == "tor"
    assert net.spine is None
    net.send(Packet("a", "b", 256, created_at=sim.now))
    sim.run(until=100.0)
    assert [entry[:2] for entry in log] == [("b", "b")]
    assert net.switch.forwarded == 1
    assert net.switch.dropped == 0


def test_single_rack_unknown_dst_drops_at_tor():
    sim = Simulator()
    net = Fabric(sim, bandwidth_gbps=10)
    net.attach("a", lambda p: None)
    net.send(Packet("a", "ghost", 256, created_at=sim.now))
    sim.run(until=100.0)
    assert net.switch.dropped == 1
    assert net.switch.forwarded == 0


# -- multi-rack routing ------------------------------------------------------

def _two_racks():
    sim = Simulator()
    fabric = Fabric(sim, bandwidth_gbps=10, racks=("r0", "r1"))
    log = []
    fabric.attach("a", _collector(sim, log, "a"), rack="r0")
    fabric.attach("b", _collector(sim, log, "b"), rack="r0")
    fabric.attach("c", _collector(sim, log, "c"), rack="r1")
    return sim, fabric, log


def test_cross_rack_delivery_routes_through_spine():
    sim, fabric, log = _two_racks()
    fabric.send(Packet("a", "c", 256, created_at=sim.now))
    sim.run(until=100.0)
    assert [entry[:2] for entry in log] == [("c", "c")]
    assert fabric.switches["r0"].forwarded == 1   # up toward the spine
    assert fabric.spine.forwarded == 1
    assert fabric.switches["r1"].forwarded == 1   # down to the node


def test_cross_rack_rtt_strictly_longer_than_intra_rack():
    sim, fabric, log = _two_racks()
    fabric.send(Packet("a", "b", 256, created_at=sim.now))
    fabric.send(Packet("a", "c", 256, created_at=sim.now))
    sim.run(until=100.0)
    arrivals = {name: t for name, _dst, t in log}
    assert set(arrivals) == {"b", "c"}
    # the spine hop adds two longer propagation runs plus a forwarding
    # delay: strictly, not marginally, slower
    assert arrivals["c"] > arrivals["b"] + 2 * fabric.inter_rack_propagation_us


def test_spine_drop_accounting_for_unknown_destination():
    sim, fabric, _log = _two_racks()
    fabric.send(Packet("a", "ghost", 256, created_at=sim.now))
    sim.run(until=100.0)
    # the local ToR optimistically forwards up; the spine owns the drop
    assert fabric.switches["r0"].forwarded == 1
    assert fabric.switches["r0"].dropped == 0
    assert fabric.spine.dropped == 1
    assert fabric.spine.forwarded == 0


def test_tor_never_reascends_spine_traffic():
    sim, fabric, _log = _two_racks()
    # a frame the spine (wrongly) hands to r1 for a node that is not
    # there must die at the ToR, not loop back up
    fabric.switches["r1"].deliver_local(Packet("a", "ghost", 64,
                                               created_at=sim.now))
    sim.run(until=100.0)
    assert fabric.switches["r1"].dropped == 1
    assert fabric.spine.forwarded == 0


def test_placement_and_rack_of():
    sim = Simulator()
    fabric = Fabric(sim, bandwidth_gbps=10, racks=("r0", "r1"))
    fabric.place("n", "r1")
    fabric.attach("n", lambda p: None)
    assert fabric.rack_of("n") == "r1"
    with pytest.raises(ValueError):
        fabric.place("m", "nope")
    with pytest.raises(ValueError):
        fabric.attach("m", lambda p: None, rack="nope")
    with pytest.raises(AttributeError):
        fabric.switch  # multi-rack fabrics have no sole ToR


def test_links_enumerates_every_link_once():
    sim, fabric, _log = _two_racks()
    links = list(fabric.links())
    # 3 node uplinks + 3 ToR downlinks + 2 racks x (spine-up, spine-down)
    assert len(links) == 3 + 3 + 4
    assert len({link.name for link in links}) == len(links)


def test_duplicate_rack_names_rejected():
    with pytest.raises(ValueError):
        Fabric(Simulator(), bandwidth_gbps=10, racks=("r0", "r0"))
