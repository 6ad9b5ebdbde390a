"""FaultPlane unit tests: spec validation, triggers, wiring, determinism."""

import pytest

from repro.core import Actor, Message, SchedulerConfig
from repro.core.channel import Channel
from repro.experiments.testbed import make_testbed
from repro.net import Link, Packet
from repro.nic import LIQUIDIO_CN2350, DmaEngine, WorkloadProfile
from repro.sim import (
    FaultKind,
    FaultPlane,
    FaultSpec,
    Simulator,
    Timeout,
)


# -- spec validation ---------------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike", probability=1.0)


def test_event_kind_rejects_schedule_triggers():
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.LINK_LOSS, at_us=(10.0,))
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.DMA_TORN, period_us=5.0, stop_us=100.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.LINK_LOSS)          # no trigger at all


def test_scheduled_kind_rejects_event_triggers():
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.CORE_FAIL, probability=0.5)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.ACTOR_CRASH, every_nth=3)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.RING_STALL)         # no trigger at all


def test_unbounded_periodic_rejected():
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.CORE_STALL, target="0", period_us=10.0)
    # bounded variants are fine
    FaultSpec(FaultKind.CORE_STALL, target="0", period_us=10.0, stop_us=50.0)
    FaultSpec(FaultKind.CORE_STALL, target="0", period_us=10.0, max_count=3)


def test_fire_times_periodic_window():
    spec = FaultSpec(FaultKind.RING_STALL, target="r", period_us=10.0,
                     start_us=5.0, stop_us=36.0, duration_us=1.0)
    assert spec.fire_times() == [5.0, 15.0, 25.0, 35.0]


# -- link faults -------------------------------------------------------------

def _run_link_with_loss(seed: int, n: int = 200, p: float = 0.2):
    sim = Simulator()
    got = []
    link = Link(sim, 10, receiver=lambda pkt: got.append(pkt.payload),
                propagation_us=0.1, name="wire")
    plane = FaultPlane(sim, seed=seed)
    plane.add(FaultSpec(FaultKind.LINK_LOSS, target="wire", probability=p))
    plane.wire_link(link)
    for i in range(n):
        link.transmit(Packet("a", "b", 128, payload=i))
    sim.run()
    return got, link, plane


def test_link_loss_drops_frames_and_counts():
    got, link, plane = _run_link_with_loss(seed=3)
    assert 0 < len(got) < 200
    assert link.frames_dropped == 200 - len(got)
    assert plane.counts[FaultKind.LINK_LOSS] == link.frames_dropped
    # survivors keep FIFO order
    assert got == sorted(got)


def test_link_loss_same_seed_same_schedule():
    got_a, _, plane_a = _run_link_with_loss(seed=11)
    got_b, _, plane_b = _run_link_with_loss(seed=11)
    got_c, _, plane_c = _run_link_with_loss(seed=12)
    assert got_a == got_b
    assert plane_a.schedule_log == plane_b.schedule_log
    assert plane_a.schedule_log != plane_c.schedule_log


def test_link_corrupt_counts_separately():
    sim = Simulator()
    got = []
    link = Link(sim, 10, receiver=got.append, propagation_us=0.1,
                name="wire")
    plane = FaultPlane(sim, seed=5)
    plane.add(FaultSpec(FaultKind.LINK_CORRUPT, target="wire",
                        probability=1.0, max_count=4))
    plane.wire_link(link)
    for i in range(10):
        link.transmit(Packet("a", "b", 128, payload=i))
    sim.run()
    assert link.frames_corrupted == 4           # max_count cap respected
    assert len(got) == 6


def test_event_fault_respects_time_window():
    sim = Simulator()
    got = []
    link = Link(sim, 10, receiver=got.append, propagation_us=0.0,
                name="wire")
    plane = FaultPlane(sim, seed=5)
    plane.add(FaultSpec(FaultKind.LINK_LOSS, target="wire", probability=1.0,
                        start_us=100.0, stop_us=200.0))
    plane.wire_link(link)
    for t in (50.0, 150.0, 250.0):
        sim.post_at(t, link.transmit, Packet("a", "b", 64, payload=t))
    sim.run()
    assert [p.payload for p in got] == [50.0, 250.0]
    assert link.frames_dropped == 1


# -- ring faults -------------------------------------------------------------

def _msg(i: int) -> Message:
    return Message(target="t", payload=i, size=64)


def test_torn_writes_every_nth():
    sim = Simulator()
    chan = Channel(sim, DmaEngine(sim), slots=64, name="c")
    plane = FaultPlane(sim, seed=1)
    plane.add(FaultSpec(FaultKind.DMA_TORN, target="c.to_host",
                        every_nth=4))
    plane.wire_channel(chan)
    for i in range(12):
        chan.nic_send(_msg(i))
    sim.run()
    got = []
    while True:
        msg = chan.host_poll()
        if msg is None and not chan.to_host:
            break
        if msg is not None:
            got.append(msg.payload)
    assert chan.to_host.checksum_failures == 3      # messages 4, 8, 12
    assert chan.to_host.dma.torn_writes == 3
    assert chan.to_host.nacks == 3
    assert got == [0, 1, 2, 4, 5, 6, 8, 9, 10]


def test_ring_stall_freezes_consumer_until_expiry():
    sim = Simulator()
    chan = Channel(sim, DmaEngine(sim), slots=16, name="c")
    chan.nic_send(_msg(0))
    sim.run()
    chan.to_host.stall(50.0)
    assert chan.host_poll() is None                 # frozen
    sim.run(until=sim.now + 60.0)
    assert chan.host_poll().payload == 0            # thawed


# -- scheduled faults against a runtime -------------------------------------

def _echo(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    if msg.packet is not None:
        ctx.reply(msg, size=msg.size)


def test_core_fail_rebalances_and_service_survives():
    bed = make_testbed()
    plane = FaultPlane(bed.sim, seed=2)
    plane.add(FaultSpec(FaultKind.CORE_FAIL, target="2", node="server",
                        at_us=(500.0,)))
    plane.add(FaultSpec(FaultKind.CORE_STALL, target="1", node="server",
                        at_us=(600.0,), duration_us=100.0))
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False),
                            fault_plane=plane)
    rt = server.runtime
    rt.register_actor(
        Actor("echo", _echo, concurrent=True,
              profile=WorkloadProfile("e", 2.0, 1.2, 0.5)),
        steering_keys=["data"])
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    for i in range(30):
        bed.sim.post_at(i * 50.0, bed.network.send,
                        Packet("client", "server", 128, kind="data",
                               created_at=i * 50.0))
    bed.sim.run(until=5_000.0)
    rt.stop()
    sched = rt.nic_scheduler
    assert sched.core_failures == 1
    assert sched.core_stalls == 1
    assert not sched.core_health.alive(2)
    assert sched.core_health.alive_count() == sched.num_cores - 1
    # the failed core is out of both pools; the floors still hold
    assert sched.core_mode[2] == "failed"
    assert sched.fcfs_cores() >= sched.config.min_fcfs_cores
    assert len(replies) == 30
    assert plane.counts == {FaultKind.CORE_FAIL: 1, FaultKind.CORE_STALL: 1}


def test_failed_mgmt_core_promotes_replacement():
    bed = make_testbed()
    plane = FaultPlane(bed.sim, seed=2)
    plane.add(FaultSpec(FaultKind.CORE_FAIL, target="0", at_us=(100.0,)))
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False),
                            fault_plane=plane)
    sched = server.runtime.nic_scheduler
    assert sched.mgmt_core == 0
    bed.sim.run(until=200.0)
    server.runtime.stop()
    assert not sched.core_health.alive(0)
    assert sched.mgmt_core != 0
    assert sched.core_health.alive(sched.mgmt_core)


def test_scheduled_node_filter():
    """A node-scoped spec only fires on that runtime."""
    bed = make_testbed()
    plane = FaultPlane(bed.sim, seed=2)
    plane.add(FaultSpec(FaultKind.CORE_FAIL, target="1", node="b",
                        at_us=(100.0,)))
    sa = bed.add_server("a", LIQUIDIO_CN2350,
                        config=SchedulerConfig(migration_enabled=False),
                        fault_plane=plane)
    sb = bed.add_server("b", LIQUIDIO_CN2350,
                        config=SchedulerConfig(migration_enabled=False),
                        fault_plane=plane)
    bed.sim.run(until=200.0)
    sa.runtime.stop()
    sb.runtime.stop()
    assert sa.runtime.nic_scheduler.core_health.alive(1)
    assert not sb.runtime.nic_scheduler.core_health.alive(1)
    assert plane.schedule_log == [(100.0, FaultKind.CORE_FAIL, "b.core1")]


def test_snapshot_totals():
    sim = Simulator()
    plane = FaultPlane(sim, seed=0)
    link = Link(sim, 10, receiver=lambda p: None, propagation_us=0.0,
                name="wire")
    plane.add(FaultSpec(FaultKind.LINK_LOSS, target="wire", probability=1.0))
    plane.wire_link(link)
    for _ in range(3):
        link.transmit(Packet("a", "b", 64))
    sim.run()
    snap = plane.snapshot()
    assert snap.injected == {FaultKind.LINK_LOSS: 3}
    assert snap.total == 3
    assert snap.schedule_len == 3
