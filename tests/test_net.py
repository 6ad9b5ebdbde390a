"""Tests for the network substrate: framing math, links, switch, pktgen."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    MIN_FRAME,
    Link,
    Network,
    OpenLoopGenerator,
    Packet,
    ClosedLoopGenerator,
    line_rate_pps,
    serialization_delay_us,
    wire_bits,
)
from repro.sim import Rng, Simulator


# -- framing arithmetic -----------------------------------------------------

def test_wire_bits_includes_overhead():
    assert wire_bits(64) == (64 + 20) * 8


def test_line_rate_64b_10gbe_is_14_88_mpps():
    # The canonical small-packet line rate everybody quotes.
    assert line_rate_pps(10, 64) == pytest.approx(14.88e6, rel=0.01)


def test_line_rate_1500b_10gbe():
    assert line_rate_pps(10, 1500) == pytest.approx(822_368, rel=0.01)


def test_serialization_delay_scales_with_size():
    assert serialization_delay_us(10, 1500) > serialization_delay_us(10, 64)
    # 1500B + 24B overhead at 10 Gbps = 1.2192 µs
    assert serialization_delay_us(10, 1500) == pytest.approx(1.216, rel=1e-3)


@given(st.integers(min_value=1, max_value=9000))
@settings(max_examples=50, deadline=None)
def test_rate_times_delay_is_unity(size):
    # pps × per-packet serialization time ≡ 1 second.
    pps = line_rate_pps(25, size)
    delay_s = serialization_delay_us(25, size) / 1e6
    assert pps * delay_s == pytest.approx(1.0, rel=1e-9)


# -- packets ----------------------------------------------------------------

def test_packet_padded_to_minimum_frame():
    assert Packet("a", "b", size=20).size == MIN_FRAME


def test_packet_reply_swaps_endpoints_and_keeps_timestamp():
    req = Packet("client", "server", size=128, created_at=5.0, flow_id=3)
    rep = req.reply(size=200, payload="v")
    assert (rep.src, rep.dst) == ("server", "client")
    assert rep.created_at == 5.0
    assert rep.flow_id == 3
    assert rep.payload == "v"


def test_packet_ids_unique():
    ids = {Packet("a", "b", 64).packet_id for _ in range(10)}
    assert len(ids) == 10


# -- links --------------------------------------------------------------------

def test_link_delivers_after_serialization_and_propagation():
    sim = Simulator()
    arrivals = []
    link = Link(sim, 10, receiver=lambda p: arrivals.append(sim.now),
                propagation_us=0.3)
    link.transmit(Packet("a", "b", 1500))
    sim.run()
    assert arrivals == [pytest.approx(1.216 + 0.3, rel=1e-3)]


def test_link_serializes_back_to_back():
    sim = Simulator()
    arrivals = []
    link = Link(sim, 10, receiver=lambda p: arrivals.append(sim.now),
                propagation_us=0.0)
    for _ in range(3):
        link.transmit(Packet("a", "b", 1500))
    sim.run()
    ser = serialization_delay_us(10, 1500)
    assert arrivals == [pytest.approx(ser * k, rel=1e-3) for k in (1, 2, 3)]


def test_link_backlog_grows_under_burst():
    sim = Simulator()
    link = Link(sim, 10, receiver=lambda p: None)
    for _ in range(100):
        link.transmit(Packet("a", "b", 1500))
    assert link.backlog_us == pytest.approx(100 * 1.216, rel=1e-3)


def test_link_utilization():
    sim = Simulator()
    link = Link(sim, 10, receiver=lambda p: None, propagation_us=0.0)
    link.transmit(Packet("a", "b", 1250))  # 10_000 bits of frame
    sim.run()
    # 1250B frame = 10192 wire bits... utilization over 10 µs window:
    util = link.utilization(elapsed_us=10.0)
    assert util == pytest.approx(1250 * 8 / (10e9 * 10e-6), rel=1e-6)


def test_link_requires_receiver():
    sim = Simulator()
    link = Link(sim, 10)
    with pytest.raises(RuntimeError):
        link.transmit(Packet("a", "b", 64))


def test_link_rejects_zero_bandwidth():
    with pytest.raises(ValueError):
        Link(Simulator(), 0)


# -- switch / network ----------------------------------------------------------

def test_network_routes_between_nodes():
    sim = Simulator()
    net = Network(sim, bandwidth_gbps=10)
    received = []
    net.attach("a", lambda p: received.append(("a", p.payload, sim.now)))
    net.attach("b", lambda p: received.append(("b", p.payload, sim.now)))
    net.send(Packet("a", "b", 256, payload="hello"))
    sim.run()
    assert len(received) == 1
    node, payload, when = received[0]
    assert node == "b" and payload == "hello"
    assert when > 0.9  # two links + switch latency


def test_switch_drops_unknown_destination():
    sim = Simulator()
    net = Network(sim, bandwidth_gbps=10)
    net.attach("a", lambda p: None)
    net.send(Packet("a", "ghost", 64))
    sim.run()
    assert net.switch.dropped == 1


def test_open_loop_generator_rate():
    sim = Simulator()
    count = []
    gen = OpenLoopGenerator(sim, send=lambda p: count.append(p), src="c",
                            dst="s", rate_mpps=1.0, size=64, rng=Rng(3))
    sim.run(until=10_000.0)
    gen.stop()
    # 1 Mpps for 10 ms → ~10k packets (Poisson, ±5%)
    assert 9_000 < len(count) < 11_000


def test_open_loop_stop_halts_emissions():
    sim = Simulator()
    sent_at = []
    gen = OpenLoopGenerator(sim, send=lambda p: sent_at.append(sim.now),
                            src="c", dst="s", rate_mpps=1.0, size=64,
                            rng=Rng(5))
    sim.post_at(20.0, gen.stop)
    sim.run(until=200.0)
    assert sent_at
    assert max(sent_at) <= 20.0
    assert gen.sent == len(sent_at)
    assert sim.pending() == 0     # the re-arm chain ends with the stop


def test_open_loop_deterministic_spacing():
    sim = Simulator()
    times = []
    OpenLoopGenerator(sim, send=lambda p: times.append(sim.now), src="c",
                      dst="s", rate_mpps=0.5, size=64, poisson=False)
    sim.run(until=10.0)
    assert times == [pytest.approx(2.0 * k) for k in range(1, 6)]


def test_closed_loop_generator_measures_latency():
    sim = Simulator()
    net = Network(sim, bandwidth_gbps=10)

    gen_holder = {}

    def server_receive(packet):
        # echo back after 5 µs of "processing"
        sim.post(5.0, net.send, packet.reply())

    net.attach("server", server_receive)
    gen = ClosedLoopGenerator(
        sim, send=net.send, src="client", dst="server", clients=4, size=256)
    net.attach("client", gen.on_reply)
    gen_holder["gen"] = gen
    sim.run(until=5_000.0)
    gen.stop()
    assert gen.completed > 100
    # round trip = 2 × (two link hops + switch) + 5 µs service
    assert 6.0 < gen.latency.mean < 12.0
    # closed loop: in-flight never exceeds client count
    assert gen.sent - gen.completed <= 4
