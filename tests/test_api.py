"""Tests for the Table-4 public API facade (repro.core.api)."""

import pytest

from repro.core import Location, Message, api
from repro.core.actor import MigrationState
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350, WorkloadProfile
from repro.core import SchedulerConfig
from repro.sim import spawn


def _echo(actor, msg, ctx):
    yield ctx.compute(us=1.0)
    if msg.packet is not None:
        ctx.reply(msg, size=msg.size)


@pytest.fixture
def runtime():
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    return bed, server.runtime


def test_actor_create_register_delete(runtime):
    bed, rt = runtime
    actor = api.actor_create("svc", _echo,
                             profile=WorkloadProfile("svc", 1.0, 1.2, 0.5))
    api.actor_register(rt, actor, steering_keys=["svc", "data"])
    assert rt.actors.lookup("svc") is actor
    assert rt.dispatch_table["data"] == "svc"
    api.actor_delete(rt, "svc")
    assert rt.actors.lookup("svc") is None
    assert "data" not in rt.dispatch_table


def test_actor_init_runs_init_handler(runtime):
    bed, rt = runtime
    inits = []

    def init(actor, ctx):
        inits.append(actor.name)

    actor = api.actor_create("svc", _echo, init_handler=init)
    api.actor_register(rt, actor)
    assert inits == ["svc"]
    api.actor_init(rt, actor)
    assert inits == ["svc", "svc"]


def test_actor_migrate_roundtrip(runtime):
    bed, rt = runtime
    actor = api.actor_create("svc", _echo)
    api.actor_register(rt, actor)
    api.dmo_malloc(rt, "svc", 4096, data="state")

    def roundtrip():
        yield from api.actor_migrate(rt, "svc")
        assert actor.location is Location.HOST
        yield from api.actor_migrate(rt, "svc")

    spawn(bed.sim, roundtrip())
    bed.sim.run(until=10_000.0)
    assert actor.location is Location.NIC
    assert actor.migration_state is MigrationState.RUNNING


def test_actor_migrate_unknown_raises(runtime):
    bed, rt = runtime
    with pytest.raises(KeyError):
        api.actor_migrate(rt, "ghost")


def test_dmo_api_surface(runtime):
    bed, rt = runtime
    actor = api.actor_create("svc", _echo)
    api.actor_register(rt, actor)
    a = api.dmo_malloc(rt, "svc", 128, data="A")
    b = api.dmo_malloc(rt, "svc", 128, data="B")
    api.dmo_mmcpy(rt, "svc", b.object_id, a.object_id)
    assert rt.dmo.read("svc", b.object_id) == "A"
    api.dmo_mmset(rt, "svc", b.object_id, "Z")
    assert rt.dmo.read("svc", b.object_id) == "Z"
    api.dmo_mmmove(rt, "svc", a.object_id, b.object_id)
    assert rt.dmo.read("svc", a.object_id) == "Z"
    assert rt.dmo.read("svc", b.object_id) is None
    api.dmo_migrate(rt, "svc", a.object_id, Location.HOST)
    assert rt.dmo.tables[Location.HOST].get(a.object_id) is not None
    api.dmo_free(rt, "svc", a.object_id)


def test_msg_ring_api(runtime):
    bed, rt = runtime
    channel = api.msg_init(rt, slots=16)
    api.msg_write(channel, Message(target="t", size=64), side="nic")
    bed.sim.run(until=10.0)
    msg = api.msg_read(channel, side="host")
    assert msg is not None and msg.target == "t"
    assert api.msg_read(channel, side="host") is None


def test_nstack_api(runtime):
    bed, rt = runtime
    received = []
    bed.network.attach("peer", lambda p: received.append(p))
    wqe = api.nstack_new_wqe("server", "peer", 256, payload="ping",
                             kind="data")
    api.nstack_hdr_cap(wqe, flow_id=7, ttl=64)
    assert wqe.flow_id == 7
    assert wqe.meta["ttl"] == 64
    api.nstack_send(rt, wqe)
    bed.sim.run(until=10.0)
    assert received and received[0].payload == "ping"


def test_nstack_get_wqe_roundtrip():
    pkt = api.nstack_new_wqe("a", "b", 64)
    msg = Message(target="x", packet=pkt)
    assert api.nstack_get_wqe(msg) is pkt


def test_runtime_snapshot(runtime):
    from repro.core import snapshot
    bed, rt = runtime
    actor = api.actor_create("svc", _echo,
                             profile=WorkloadProfile("svc", 1.0, 1.2, 0.5))
    api.actor_register(rt, actor, steering_keys=["data"])
    from repro.net import Packet
    bed.network.attach("client", lambda p: None)
    for i in range(5):
        bed.sim.post_at(i * 10.0, bed.network.send,
                        Packet("client", "server", 128))
    bed.sim.run(until=1_000.0)
    snap = snapshot(rt)
    assert snap.node == "server"
    assert snap.scheduler.ops_completed >= 5
    assert snap.actor("svc").requests_seen >= 5
    assert snap.placement() == {"svc": "nic"}
    assert "actor svc" in snap.summary()
    with pytest.raises(KeyError):
        snap.actor("ghost")
