"""Tests for workload generators and the DPDK/Floem baselines."""

import pytest

from repro.baselines import DpdkRuntime, FLOEM_QUEUE_OVERHEAD_US, FloemRuntime
from repro.core import Actor, Location
from repro.host import HostMachine
from repro.net import Fabric, Packet
from repro.nic import HOST_XEON_E5_2680, LIQUIDIO_CN2350, SmartNic, WorkloadProfile
from repro.sim import Simulator, rng_draw_count
from repro.workloads import (
    KvWorkload,
    TwitterWorkload,
    TxnWorkload,
    value_bytes_for_packet,
)
from repro.workloads.generators import _HASHTAGS, _WORDS


# -- workloads -------------------------------------------------------------------

def test_kv_workload_mix_95_5():
    wl = KvWorkload(packet_size=512, seed=3)
    kinds = [wl.next_request()["kind"] for _ in range(4000)]
    write_frac = sum(1 for k in kinds if k == "rkv-put") / len(kinds)
    assert write_frac == pytest.approx(0.05, abs=0.02)


def test_kv_workload_keys_zipf_skewed():
    wl = KvWorkload(packet_size=512, seed=3)
    keys = [wl.next_request()["key"] for _ in range(3000)]
    # zipf(0.99): the most common key should repeat many times
    from collections import Counter
    top = Counter(keys).most_common(1)[0][1]
    assert top > 30


def test_kv_value_scales_with_packet_size():
    assert value_bytes_for_packet(1024) > value_bytes_for_packet(256)
    assert value_bytes_for_packet(64) == 8  # floor


def test_txn_workload_2r1w():
    wl = TxnWorkload(packet_size=512)
    req = wl.next_request()
    assert req["kind"] == "dt-txn"
    assert len(req["reads"]) == 2
    assert len(req["writes"]) == 1
    assert not set(req["reads"]) & set(req["writes"])


def test_twitter_workload_tuples_scale_with_packet():
    small = TwitterWorkload(packet_size=128)
    large = TwitterWorkload(packet_size=1500)
    assert len(large.next_request()["tuples"]) > len(small.next_request()["tuples"])


def test_twitter_tuples_contain_hashtags_sometimes():
    wl = TwitterWorkload(packet_size=1024, seed=4)
    tuples = [t for _ in range(50) for t in wl.next_request()["tuples"]]
    assert any("#tag" in t for t in tuples)


# -- DPDK baseline -----------------------------------------------------------------

def _echo(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    ctx.reply(msg, payload=msg.payload, size=msg.size)


def test_dpdk_runtime_serves_requests_host_only():
    sim = Simulator()
    network = Fabric(sim, bandwidth_gbps=10)
    host = HostMachine(sim, HOST_XEON_E5_2680)
    runtime = DpdkRuntime(sim, host, network, "server", workers=4)
    actor = Actor("echo", _echo, profile=WorkloadProfile("e", 2.0, 1.3, 0.6))
    runtime.register_actor(actor, steering_keys=["data"])
    assert actor.location is Location.HOST

    replies = []
    network.attach("client", lambda p: replies.append(p))
    for i in range(20):
        sim.post_at(i * 10.0, network.send,
                    Packet("client", "server", 256, payload=i))
    sim.run(until=2_000.0)
    runtime.stop()
    assert len(replies) == 20
    assert runtime.host_cores_used(2_000.0) > 0
    assert runtime.nic_cores_used(2_000.0) == 0.0


def test_dpdk_charges_stack_costs():
    sim = Simulator()
    network = Fabric(sim, bandwidth_gbps=10)
    host = HostMachine(sim, HOST_XEON_E5_2680)
    runtime = DpdkRuntime(sim, host, network, "server", workers=1)
    actor = Actor("echo", _echo, profile=WorkloadProfile("e", 2.0, 1.3, 0.6))
    runtime.register_actor(actor, steering_keys=["data"])
    network.attach("client", lambda p: None)
    network.send(Packet("client", "server", 512))
    sim.run(until=100.0)
    runtime.stop()
    busy = runtime.host_util[0].busy_time
    # rx + handler(≈0.6 host µs) + tx — clearly more than the bare handler
    assert busy > 1.5


# -- Floem baseline ------------------------------------------------------------------

def test_floem_static_placement_by_complexity():
    sim = Simulator()
    network = Fabric(sim, bandwidth_gbps=10)
    host = HostMachine(sim, HOST_XEON_E5_2680)
    nic = SmartNic(sim, LIQUIDIO_CN2350)
    runtime = FloemRuntime(sim, nic, host, network, "server")
    simple = Actor("simple", _echo, profile=WorkloadProfile("s", 2.0, 1.3, 0.6))
    complex_ = Actor("complex", _echo, profile=WorkloadProfile("c", 34.0, 1.7, 0.1))
    runtime.register_actor(simple)
    runtime.register_actor(complex_)
    assert simple.location is Location.NIC
    assert complex_.location is Location.HOST
    assert simple.pinned and complex_.pinned


def test_floem_charges_queue_overhead():
    sim = Simulator()
    network = Fabric(sim, bandwidth_gbps=10)
    host = HostMachine(sim, HOST_XEON_E5_2680)
    nic = SmartNic(sim, LIQUIDIO_CN2350)
    runtime = FloemRuntime(sim, nic, host, network, "server")
    actor = Actor("echo", _echo, profile=WorkloadProfile("e", 2.0, 1.3, 0.6))
    runtime.register_actor(actor, steering_keys=["data"])
    replies = []
    network.attach("client", lambda p: replies.append(sim.now))
    network.send(Packet("client", "server", 256, created_at=0.0))
    sim.run(until=100.0)
    runtime.stop()
    assert replies
    # RTT includes the FLOEM queue tax on top of wire + 2µs handler
    assert replies[0] > 2.0 + FLOEM_QUEUE_OVERHEAD_US


class _ChoiceTwitter(TwitterWorkload):
    """The tuple stream as it was before its word picks went through
    one ``Rng.picks`` call: three ``choice`` draws.  The oracle for the
    tuples and for the RNG-stream position."""

    def next_tuple(self):
        words = [str(self.rng.choice(_WORDS)) for _ in range(3)]
        if self.rng.random() < 0.6:
            words.append(_HASHTAGS[self.zipf.draw()])
        return " ".join(words)


@pytest.mark.parametrize("seed", [17, 0, 4, 2024])
def test_twitter_stream_matches_the_choice_oracle(seed):
    new = TwitterWorkload(packet_size=512, seed=seed)
    old = _ChoiceTwitter(packet_size=512, seed=seed)
    for _ in range(100):
        before = rng_draw_count()
        got = new.next_request()
        drawn = rng_draw_count() - before
        before = rng_draw_count()
        want = old.next_request()
        assert got == want
        assert drawn == rng_draw_count() - before
