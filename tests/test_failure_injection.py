"""Failure injection: torn DMA writes, hostile actors, overload drops.

Fault injection goes through the FaultPlane (declarative, seeded specs
wired into the dataplane) rather than monkeypatched send paths — the same
mechanism the chaos experiments use.
"""

import pytest

from repro.core import Actor, IsolationPolicy, Message, SchedulerConfig
from repro.core.actor import Location
from repro.experiments.testbed import make_testbed
from repro.net import Packet
from repro.nic import LIQUIDIO_CN2350, WorkloadProfile
from repro.sim import FaultKind, FaultPlane, FaultSpec, Rng, Timeout


def _echo(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    if msg.packet is not None:
        ctx.reply(msg, size=msg.size)


def test_corrupted_ring_messages_dropped_but_service_survives():
    """Torn DMA writes (bad checksum) lose individual messages without
    wedging the host workers or the channel."""
    bed = make_testbed()
    # corrupt every 5th NIC→host ring write
    plane = FaultPlane(bed.sim, seed=1)
    plane.add(FaultSpec(FaultKind.DMA_TORN, target="server.chan.to_host",
                        every_nth=5))
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False),
                            fault_plane=plane)
    actor = Actor("hosty", _echo, location=Location.HOST, pinned=True,
                  concurrent=True,
                  profile=WorkloadProfile("h", 2.0, 1.2, 0.5))
    rt = server.runtime
    rt.register_actor(actor, steering_keys=["data"])

    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    for i in range(50):
        bed.sim.post_at(i * 20.0, bed.network.send,
                        Packet("client", "server", 256, created_at=i * 20.0))
    bed.sim.run(until=5_000.0)
    rt.stop()

    failures = rt.channel.to_host.checksum_failures
    assert failures == 10                     # exactly the injected ones
    assert plane.counts[FaultKind.DMA_TORN] == 10
    assert rt.channel.to_host.dma.torn_writes == 10
    assert rt.channel.to_host.nacks == 10     # poll reported each corruption
    assert len(replies) == 50 - failures      # the rest were served


def test_hostile_actor_cannot_steal_other_actors_objects():
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    rt = server.runtime
    victim = Actor("victim", _echo, profile=WorkloadProfile("v", 2.0, 1.2, 0.5))
    rt.register_actor(victim)
    secret = rt.dmo.malloc("victim", 64, data="secret")
    stolen = []

    def thief_handler(actor, msg, ctx):
        yield ctx.compute(us=1.0)
        try:
            stolen.append(ctx.dmo_read(secret.object_id))
        except Exception as exc:
            stolen.append(type(exc).__name__)

    thief = Actor("thief", thief_handler,
                  profile=WorkloadProfile("t", 1.0, 1.2, 0.5))
    rt.register_actor(thief, steering_keys=["attack"])
    bed.network.attach("client", lambda p: None)
    bed.network.send(Packet("client", "server", 64, kind="attack"))
    bed.sim.run(until=100.0)
    rt.stop()
    assert stolen == ["DmoError"]
    assert rt.dmo.denied_accesses == 1
    assert rt.dmo.read("victim", secret.object_id) == "secret"


def test_runaway_actor_killed_while_victims_keep_service():
    bed = make_testbed()
    server = bed.add_server(
        "server", LIQUIDIO_CN2350,
        config=SchedulerConfig(
            migration_enabled=False,
            isolation=IsolationPolicy(timeout_us=30.0)))
    rt = server.runtime

    def runaway(actor, msg, ctx):
        while True:
            yield Timeout(5.0)

    rt.register_actor(Actor("runaway", runaway), steering_keys=["attack"])
    rt.register_actor(Actor("good", _echo, concurrent=True,
                            profile=WorkloadProfile("g", 2.0, 1.2, 0.5)),
                      steering_keys=["data"])
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    # hostile traffic first, then honest traffic
    for i in range(3):
        bed.sim.post_at(10.0 + i, bed.network.send,
                        Packet("client", "server", 64, kind="attack"))
    for i in range(40):
        bed.sim.post_at(50.0 + i * 10.0, bed.network.send,
                        Packet("client", "server", 256,
                               created_at=50.0 + i * 10.0, kind="data"))
    bed.sim.run(until=2_000.0)
    rt.stop()
    assert rt.config.isolation.kills == ["runaway"]
    assert len(replies) == 40


def test_overloaded_channel_drops_are_counted_not_fatal():
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    rt = server.runtime
    # a host actor whose channel has almost no slots
    from repro.core.channel import Channel
    rt.channel = Channel(bed.sim, rt._channel_dma, slots=4,
                         name="tiny-chan")
    actor = Actor("hosty", _echo, location=Location.HOST, pinned=True,
                  concurrent=True,
                  profile=WorkloadProfile("h", 2.0, 1.2, 0.5))
    rt.register_actor(actor, steering_keys=["data"])
    gen_replies = []
    bed.network.attach("client", lambda p: gen_replies.append(p))
    # burst far beyond 4 ring slots
    for i in range(64):
        bed.sim.post_at(1.0 + i * 0.05, bed.network.send,
                        Packet("client", "server", 256,
                               created_at=1.0 + i * 0.05, kind="data"))
    bed.sim.run(until=5_000.0)
    rt.stop()
    assert rt.channel_drops > 0
    assert len(gen_replies) + rt.channel_drops == 64


def test_storage_burst_slows_but_completes():
    """A flood of cache-missing reads (slow storage) must not lose requests."""
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    rt = server.runtime
    rt.storage.cache_hit_ratio = 0.0      # every read pays the device

    def reader(actor, msg, ctx):
        yield ctx.compute(us=1.0)
        yield from ctx.storage_read()
        ctx.reply(msg, size=64)

    rt.register_actor(Actor("reader", reader, location=Location.HOST,
                            pinned=True, concurrent=True,
                            profile=WorkloadProfile("r", 1.0, 1.0, 2.0)),
                      steering_keys=["data"])
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    for i in range(30):
        bed.sim.post_at(i * 5.0, bed.network.send,
                        Packet("client", "server", 128,
                               created_at=i * 5.0, kind="data"))
    bed.sim.run(until=60_000.0)
    rt.stop()
    assert len(replies) == 30
    assert rt.storage.reads == 30
