"""Recovery-path tests: reliable delivery, retransmit ordering, restarts.

Property tests (hypothesis, seeded) pin the two guarantees the chaos
experiments lean on: per-steering-key delivery *order* survives random
torn-write loss, and actor restart is idempotent w.r.t. DMO state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Actor,
    IsolationPolicy,
    Message,
    ReliableChannel,
    SchedulerConfig,
)
from repro.core.channel import Channel
from repro.experiments.testbed import make_testbed
from repro.net import Packet
from repro.nic import LIQUIDIO_CN2350, DmaEngine, WorkloadProfile
from repro.sim import (
    FaultKind,
    FaultPlane,
    FaultSpec,
    RecoveryPolicy,
    Simulator,
    Timeout,
    spawn,
)


# -- reliable channel unit behavior ------------------------------------------

def _reliable_fixture(slots=64, torn_probability=0.0, torn_every_nth=0,
                      seed=7):
    sim = Simulator()
    chan = Channel(sim, DmaEngine(sim), slots=slots, name="c")
    if torn_probability or torn_every_nth:
        plane = FaultPlane(sim, seed=seed)
        plane.add(FaultSpec(FaultKind.DMA_TORN, target="c.to_host",
                            probability=torn_probability,
                            every_nth=torn_every_nth))
        plane.wire_channel(chan)
    rc = ReliableChannel(chan, sim)
    return sim, chan, rc


def _drive(sim, rc, expect, until=50_000.0, poll_us=1.0):
    """Poll the host side until ``expect`` messages arrive (or timeout)."""
    got = []

    def consumer():
        while len(got) < expect and sim.now < until:
            msg = rc.host_poll()
            if msg is not None:
                got.append(msg)
            else:
                yield Timeout(poll_us)

    spawn(sim, consumer(), name="consumer")
    sim.run(until=until)
    return got


def test_reliable_channel_recovers_torn_writes():
    sim, chan, rc = _reliable_fixture(torn_every_nth=3)
    for i in range(9):
        rc.nic_send(Message(target="a", payload=i, size=64))
    got = _drive(sim, rc, expect=9)
    assert [m.payload for m in got] == list(range(9))
    # every 3rd produce is torn — retransmitted writes count too, so a
    # message can tear more than once before it finally lands
    assert chan.to_host.checksum_failures >= 3
    assert rc.retransmits == chan.to_host.checksum_failures
    assert rc.recovered == 3                    # three distinct messages
    assert len(rc.mttr_samples) == 3
    assert rc.mttr_mean_us > 0.0
    assert rc.pending("to_host") == 0


def test_reliable_channel_ring_full_backoff():
    """A burst far past the ring size goes through without an exception
    reaching the sender (the event-level wait_not_full)."""
    sim, chan, rc = _reliable_fixture(slots=4)
    for i in range(40):
        rc.nic_send(Message(target="a", payload=i, size=64))
    got = _drive(sim, rc, expect=40)
    assert [m.payload for m in got] == list(range(40))
    assert rc.ring_full_backoffs > 0
    assert rc.pending("to_host") == 0


def test_unsequenced_traffic_passes_through():
    """Messages produced directly on the raw channel (no rel_* metadata)
    still come out of the reliable poll."""
    sim, chan, rc = _reliable_fixture()
    chan.nic_send(Message(target="a", payload="raw", size=64))
    got = _drive(sim, rc, expect=1)
    assert got[0].payload == "raw"


@given(seed=st.integers(min_value=0, max_value=10_000),
       n_keys=st.integers(min_value=1, max_value=4),
       n_msgs=st.integers(min_value=4, max_value=40),
       torn=st.floats(min_value=0.05, max_value=0.45))
@settings(max_examples=25, deadline=None)
def test_per_key_order_preserved_under_random_loss(seed, n_keys, n_msgs,
                                                   torn):
    """Property: whatever the loss pattern, released messages per steering
    key are exactly 0,1,2,... in send order — no gap, no dup, no swap."""
    sim, chan, rc = _reliable_fixture(torn_probability=torn, seed=seed)
    keys = [f"actor{k}" for k in range(n_keys)]
    sent = {key: 0 for key in keys}
    for i in range(n_msgs):
        key = keys[i % n_keys]
        rc.nic_send(Message(target=key, payload=(key, sent[key]), size=64))
        sent[key] += 1
    got = _drive(sim, rc, expect=n_msgs)
    assert len(got) == n_msgs                   # nothing lost
    per_key = {key: [] for key in keys}
    for msg in got:
        key, idx = msg.payload
        per_key[key].append(idx)
    for key in keys:
        assert per_key[key] == list(range(sent[key]))
    assert rc.pending("to_host") == 0


# -- actor crash / restart ---------------------------------------------------

def _counting_actor(counts):
    def handler(actor, msg, ctx):
        yield ctx.compute(us=2.0)
        counts.append(msg.payload)
        if msg.packet is not None:
            ctx.reply(msg, size=64)
    return handler


def _crash_bed(policy=None):
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False),
                            recovery=policy)
    return bed, server.runtime


def test_crash_buffers_messages_and_restart_redelivers():
    bed, rt = _crash_bed(RecoveryPolicy(restart_delay_us=50.0))
    counts = []
    rt.register_actor(
        Actor("worker", _counting_actor(counts), concurrent=True,
              profile=WorkloadProfile("w", 2.0, 1.2, 0.5)),
        steering_keys=["data"])
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    for i in range(10):
        bed.sim.post_at(i * 10.0, bed.network.send,
                        Packet("client", "server", 64, kind="data",
                               payload=i, created_at=i * 10.0))
    bed.sim.post_at(34.0, rt.crash_actor, "worker")
    bed.sim.run(until=5_000.0)
    rt.stop()
    assert rt.crashes == 1
    assert rt.restarts == 1
    assert len(replies) == 10                   # nothing lost
    assert sorted(counts) == list(range(10))
    assert len(rt.recovery_mttr) == 1
    assert rt.recovery_mttr[0] >= 50.0          # at least the restart delay


def test_crash_without_policy_stays_down():
    bed, rt = _crash_bed(policy=None)
    counts = []
    rt.register_actor(
        Actor("worker", _counting_actor(counts), concurrent=True,
              profile=WorkloadProfile("w", 2.0, 1.2, 0.5)),
        steering_keys=["data"])
    bed.network.attach("client", lambda p: None)
    assert rt.crash_actor("worker")
    bed.sim.run(until=1_000.0)
    rt.stop()
    assert rt.restarts == 0
    assert rt.actors.lookup("worker") is None


def test_watchdog_kill_restarts_when_policy_allows():
    bed = make_testbed()
    server = bed.add_server(
        "server", LIQUIDIO_CN2350,
        config=SchedulerConfig(
            migration_enabled=False,
            isolation=IsolationPolicy(timeout_us=30.0)),
        recovery=RecoveryPolicy(restart_delay_us=50.0))
    rt = server.runtime

    calls = []

    def misbehaves_once(actor, msg, ctx):
        calls.append(msg.payload)
        if len(calls) == 1:
            for _ in range(100):               # first request: runaway
                yield Timeout(5.0)
        else:
            yield ctx.compute(us=2.0)
            if msg.packet is not None:
                ctx.reply(msg, size=64)

    rt.register_actor(Actor("flaky", misbehaves_once), steering_keys=["data"])
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    for i in range(3):
        bed.sim.post_at(10.0 + i * 100.0, bed.network.send,
                        Packet("client", "server", 64, kind="data",
                               payload=i, created_at=10.0 + i * 100.0))
    bed.sim.run(until=5_000.0)
    rt.stop()
    assert rt.config.isolation.kills == ["flaky"]
    assert rt.restarts >= 1
    # the two post-runaway requests were answered after the restart
    assert len(replies) == 2


@given(seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=15, deadline=None)
def test_restart_idempotent_wrt_dmo_state(seed):
    """Property: crash + restart (and spurious extra restarts) never
    change the actor's DMO contents, and double-restart is a no-op."""
    bed, rt = _crash_bed(RecoveryPolicy(restart_delay_us=25.0))
    counts = []
    rt.register_actor(
        Actor("worker", _counting_actor(counts), concurrent=True,
              profile=WorkloadProfile("w", 2.0, 1.2, 0.5)),
        steering_keys=["data"])
    obj = rt.dmo.malloc("worker", 128, data={"seed": seed, "n": seed * 3})
    before = dict(rt.dmo.read("worker", obj.object_id))

    assert rt.crash_actor("worker")
    # crash keeps the DMO region: readable even while the actor is down
    assert rt.dmo.read("worker", obj.object_id) == before
    bed.sim.run(until=100.0)                    # restart fires at 25µs
    assert rt.actors.lookup("worker") is not None
    assert rt.dmo.read("worker", obj.object_id) == before
    # restarting a live actor is a no-op, not a second registration
    assert rt.restart_actor("worker") is False
    assert rt.restarts == 1
    assert rt.dmo.read("worker", obj.object_id) == before
    rt.stop()
