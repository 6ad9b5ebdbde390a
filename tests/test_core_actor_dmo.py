"""Unit tests for the actor model, DMO layer, channels and isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Actor,
    ActorTable,
    Channel,
    Dmo,
    DmoError,
    DmoManager,
    IsolationPolicy,
    Location,
    Message,
    QuotaEnforcer,
    Ring,
    RingFullError,
    Watchdog,
    message_checksum,
)
from repro.nic import DmaEngine
from repro.sim import Simulator


def _noop_handler(actor, msg, ctx):
    return None


# -- actors ---------------------------------------------------------------------

def test_actor_ids_unique_and_table_registration():
    table = ActorTable()
    a = Actor("a", _noop_handler)
    b = Actor("b", _noop_handler)
    table.register(a)
    table.register(b)
    assert a.actor_id != b.actor_id
    assert table.lookup("a") is a
    assert len(table) == 2
    with pytest.raises(ValueError):
        table.register(Actor("a", _noop_handler))


def test_actor_deregister_marks_unschedulable():
    table = ActorTable()
    a = Actor("a", _noop_handler)
    table.register(a)
    table.deregister("a")
    assert not a.schedulable
    assert "a" not in table


def test_exec_lock_exclusive_by_default():
    a = Actor("a", _noop_handler)
    assert a.try_lock(0)
    assert not a.try_lock(1)
    a.unlock(0)
    assert a.try_lock(1)


def test_concurrent_actor_never_blocks():
    a = Actor("a", _noop_handler, concurrent=True)
    assert a.try_lock(0)
    assert a.try_lock(1)


def test_actor_bookkeeping_dispersion_and_load():
    a = Actor("a", _noop_handler)
    for latency in (10.0, 10.0, 50.0, 10.0):
        a.record_execution(latency, request_bytes=512, service_us=latency / 2)
    assert a.requests_seen == 4
    assert a.dispersion > a.mean_exec_us
    assert a.mean_service_us < a.mean_exec_us
    assert a.load(elapsed_us=100.0) > 0
    assert a.request_bytes_ewma == pytest.approx(512.0)


def test_actor_table_at_location():
    table = ActorTable()
    table.register(Actor("n", _noop_handler, location=Location.NIC))
    table.register(Actor("h", _noop_handler, location=Location.HOST))
    assert [a.name for a in table.at(Location.HOST)] == ["h"]


# -- DMO --------------------------------------------------------------------------

@pytest.fixture
def dmo():
    mgr = DmoManager(region_bytes=1 << 20)
    mgr.create_region("alice")
    mgr.create_region("bob")
    return mgr


def test_dmo_malloc_free_roundtrip(dmo):
    obj = dmo.malloc("alice", 1024, data={"k": 1})
    assert dmo.read("alice", obj.object_id) == {"k": 1}
    dmo.free("alice", obj.object_id)
    with pytest.raises(DmoError):
        dmo.read("alice", obj.object_id)


def test_dmo_cross_actor_access_denied(dmo):
    obj = dmo.malloc("alice", 64)
    with pytest.raises(DmoError):
        dmo.read("bob", obj.object_id)
    assert dmo.denied_accesses == 1


def test_dmo_region_exhaustion(dmo):
    dmo.malloc("alice", 1 << 19)
    dmo.malloc("alice", 1 << 19)
    with pytest.raises(DmoError):
        dmo.malloc("alice", 64)


def test_dmo_requires_region():
    mgr = DmoManager()
    with pytest.raises(DmoError):
        mgr.malloc("ghost", 64)


def test_dmo_memcpy_memmove(dmo):
    src = dmo.malloc("alice", 64, data="payload")
    dst = dmo.malloc("alice", 64)
    dmo.memcpy("alice", dst.object_id, src.object_id)
    assert dmo.read("alice", dst.object_id) == "payload"
    dmo.memmove("alice", dst.object_id, src.object_id)
    assert dmo.read("alice", src.object_id) is None
    # like C's memmove, a move onto itself leaves the data as it was
    dmo.memmove("alice", dst.object_id, dst.object_id)
    assert dmo.read("alice", dst.object_id) == "payload"


def test_dmo_single_copy_invariant_on_migrate(dmo):
    obj = dmo.malloc("alice", 4096, location=Location.NIC)
    dmo.migrate("alice", obj.object_id, Location.HOST)
    assert obj.object_id not in dmo.tables[Location.NIC]
    assert obj.object_id in dmo.tables[Location.HOST]
    # idempotent
    dmo.migrate("alice", obj.object_id, Location.HOST)
    assert obj.object_id in dmo.tables[Location.HOST]


def test_dmo_migrate_all_returns_bytes(dmo):
    dmo.malloc("alice", 100)
    dmo.malloc("alice", 200)
    dmo.malloc("bob", 999)
    moved = dmo.migrate_all("alice", Location.HOST)
    assert moved == 300
    assert dmo.bytes_owned("alice", Location.HOST) == 300
    assert dmo.bytes_owned("bob", Location.NIC) == 999


def test_dmo_destroy_region_drops_objects(dmo):
    obj = dmo.malloc("alice", 64)
    dmo.destroy_region("alice")
    with pytest.raises(DmoError):
        dmo.read("alice", obj.object_id)


def test_dmo_translation_through_lifecycle(dmo):
    """Every step of an object's life keeps id -> object translation right:
    migrated ids still read, freed and destroyed ids do not exist."""
    kept = dmo.malloc("alice", 64, data="kept")
    freed = dmo.malloc("alice", 64, data="freed")
    dmo.migrate("alice", kept.object_id, Location.HOST)
    assert dmo.read("alice", kept.object_id) == "kept"
    assert dmo.migrate_all("alice", Location.HOST) == 64
    assert dmo.read("alice", freed.object_id) == "freed"
    dmo.migrate_all("alice", Location.NIC)
    assert dmo.read("alice", kept.object_id) == "kept"
    dmo.free("alice", freed.object_id)
    with pytest.raises(DmoError, match="does not exist"):
        dmo.read("alice", freed.object_id)
    assert dmo.read("alice", kept.object_id) == "kept"
    dmo.destroy_region("alice")
    with pytest.raises(DmoError, match="does not exist"):
        dmo.read("alice", kept.object_id)
    assert dmo.index == {}


@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_dmo_region_accounting_invariant(sizes):
    mgr = DmoManager(region_bytes=1 << 20)
    mgr.create_region("a")
    allocated = []
    for size in sizes:
        try:
            allocated.append(mgr.malloc("a", size))
        except DmoError:
            break
    total = sum(o.size for o in allocated)
    assert total == mgr.bytes_owned("a")
    assert total <= 1 << 20


# -- channels -------------------------------------------------------------------------

def test_ring_produce_consume_after_pcie_delay():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8)
    msg = Message(target="x", size=128)
    ring.produce(msg)
    assert ring.poll() is None  # not yet visible
    sim.run()
    assert ring.poll() is msg


def test_ring_full_blocks_producer():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=4)
    for _ in range(4):
        ring.produce(Message(target="x", size=64))
    with pytest.raises(RingFullError):
        ring.produce(Message(target="x", size=64))


def test_ring_lazy_header_sync_batches_notifications():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8)
    for _ in range(8):
        ring.produce(Message(target="x", size=64))
    sim.run()
    # consume 3: below half the ring — producer still sees 0 free
    for _ in range(3):
        assert ring.poll() is not None
    assert ring.producer_view_free == 0
    assert ring.sync_messages == 0
    # crossing half the ring triggers exactly one sync message
    assert ring.poll() is not None
    assert ring.producer_view_free == 4
    assert ring.sync_messages == 1


def test_ring_checksum_rejects_torn_write():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8)
    ring.produce(Message(target="x", size=64), corrupt=True)
    sim.run()
    assert ring.poll() is None
    assert ring.checksum_failures == 1


def test_ring_produce_cost_batching_amortizes():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8)
    msg = Message(target="x", size=256)
    assert ring.produce_cost_us(msg, batch=8) < ring.produce_cost_us(msg, batch=1)


def test_channel_bidirectional():
    sim = Simulator()
    chan = Channel(sim, DmaEngine(sim))
    chan.nic_send(Message(target="host-actor", size=64))
    chan.host_send(Message(target="nic-actor", size=64))
    sim.run()
    assert chan.host_poll().target == "host-actor"
    assert chan.nic_poll().target == "nic-actor"


def test_message_checksum_sensitive_to_fields():
    m1 = Message(target="a", kind="x", size=64)
    m2 = Message(target="a", kind="y", size=64)
    assert message_checksum(m1) != message_checksum(m2)


# -- isolation ---------------------------------------------------------------------------

def test_isolation_policy_modes():
    fw = IsolationPolicy(mode="firmware")
    os_ = IsolationPolicy(mode="full-os")
    assert fw.protection_mechanism == "software-TLB trap"
    assert fw.timeout_mechanism == "hardware timer ring"
    assert os_.protection_mechanism == "hardware paging"
    assert os_.timeout_mechanism == "POSIX signal"
    with pytest.raises(ValueError):
        IsolationPolicy(mode="hope")
    with pytest.raises(ValueError):
        IsolationPolicy(timeout_us=0)


def test_watchdog_expiry_and_kill():
    policy = IsolationPolicy(timeout_us=100.0)
    dog = Watchdog(policy)
    table = ActorTable()
    actor = Actor("evil", _noop_handler)
    table.register(actor)
    dog.arm(now=0.0, actor=actor)
    assert not dog.expired(now=50.0)
    assert dog.expired(now=101.0)
    victim = dog.kill(table)
    assert victim is actor
    assert not actor.schedulable
    assert policy.kills == ["evil"]


def test_quota_enforcer_flags_hog():
    quota = QuotaEnforcer(window_us=1000.0, max_share=0.5)
    quota.charge("hog", busy_us=900.0, now=100.0)
    assert quota.over_quota("hog", now=100.0, total_cores=2)
    assert not quota.over_quota("meek", now=100.0, total_cores=2)
    assert quota.share("hog", now=100.0, total_cores=2) > 0.5
