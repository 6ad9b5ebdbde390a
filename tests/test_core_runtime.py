"""Integration tests: the iPipe runtime end-to-end on a simulated testbed."""

import pytest

from repro.core import Actor, Location, SchedulerConfig
from repro.core.actor import Message, MigrationState
from repro.core.scheduler import WorkItem
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350, WorkloadProfile
from repro.sim import Timeout, spawn


def echo_handler(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    ctx.reply(msg, payload=msg.payload, size=msg.size)


def make_echo_server(testbed, name="server", **cfg_kwargs):
    config = SchedulerConfig(**cfg_kwargs)
    server = testbed.add_server(name, LIQUIDIO_CN2350, config=config)
    actor = Actor("echo", echo_handler,
                  profile=WorkloadProfile("echo", 1.87, 1.4, 0.6))
    server.runtime.register_actor(actor)
    return server, actor


def test_end_to_end_echo_roundtrip():
    bed = make_testbed()
    server, _ = make_echo_server(bed)
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=4, size=256)
    # route client packets to the echo actor
    for pkt_kind in ("data",):
        server.runtime.dispatch_table[pkt_kind] = "echo"
    bed.sim.run(until=5_000.0)
    gen.stop()
    assert gen.completed > 100
    # RTT = wire (≈2×1µs) + queue + 2µs handler + sync overheads
    assert 3.0 < gen.latency.mean < 15.0


def test_unknown_kind_packets_dropped():
    bed = make_testbed()
    server, _ = make_echo_server(bed)
    client = bed.add_client("client")
    gen = client.open_loop(dst="server", rate_mpps=0.1, size=128)
    bed.sim.run(until=1_000.0)
    gen.stop()
    bed.sim.run(until=1_100.0)
    assert server.runtime.nic_scheduler.ops_completed == 0


def test_actor_stats_collected():
    bed = make_testbed()
    server, actor = make_echo_server(bed)
    server.runtime.dispatch_table["data"] = "echo"
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=2, size=512)
    bed.sim.run(until=2_000.0)
    gen.stop()
    assert actor.requests_seen > 50
    assert actor.mean_exec_us > 2.0
    assert actor.request_bytes_ewma == pytest.approx(512, rel=0.05)


def test_host_located_actor_served_via_channel():
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))

    def host_handler(actor, msg, ctx):
        assert not ctx.on_nic
        yield ctx.compute(us=3.0)
        ctx.reply(msg, payload="from-host", size=msg.size)

    actor = Actor("hosty", host_handler, location=Location.HOST, pinned=True,
                  profile=WorkloadProfile("hosty", 3.0, 1.0, 1.0))
    server.runtime.register_actor(actor)
    server.runtime.dispatch_table["data"] = "hosty"
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=2, size=256)
    bed.sim.run(until=5_000.0)
    gen.stop()
    assert gen.completed > 50
    # host path: extra PCIe crossings both ways → slower than NIC echo
    assert gen.latency.mean > 5.0
    assert server.runtime.host_ops > 50
    assert server.runtime.host_cores_used(5_000.0) > 0


def test_nic_actor_to_host_actor_messaging():
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    seen = []

    def front_handler(actor, msg, ctx):
        yield ctx.compute(us=1.0)
        ctx.send("backend", kind="log", payload=msg.payload, size=64)
        ctx.reply(msg, size=msg.size)

    def backend_handler(actor, msg, ctx):
        yield ctx.compute(us=1.0)
        seen.append(msg.payload)

    server.runtime.register_actor(Actor(
        "front", front_handler, profile=WorkloadProfile("f", 1.0, 1.2, 0.5)))
    server.runtime.register_actor(Actor(
        "backend", backend_handler, location=Location.HOST, pinned=True,
        profile=WorkloadProfile("b", 1.0, 1.2, 0.5)))
    server.runtime.dispatch_table["data"] = "front"
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=1, size=128,
                             payload_factory=lambda i: i)
    bed.sim.run(until=2_000.0)
    gen.stop()
    assert len(seen) > 10
    assert seen[:3] == [0, 1, 2]


def test_forced_migration_moves_actor_and_objects():
    # Disable autonomous migration so the scheduler's pull policy doesn't
    # undo the forced move while we assert on it.
    bed = make_testbed()
    server, actor = make_echo_server(bed, migration_enabled=False)
    server.runtime.dispatch_table["data"] = "echo"
    rt = server.runtime
    obj = rt.dmo.malloc("echo", 1 << 20, data="state")

    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=2, size=256)
    bed.sim.run(until=1_000.0)

    from repro.sim import spawn
    done = {}

    def force():
        report = yield from rt.migrator.migrate_to_host(actor)
        done["report"] = report

    spawn(bed.sim, force())
    bed.sim.run(until=20_000.0)
    gen.stop()
    report = done["report"]
    assert actor.location is Location.HOST
    assert actor.migration_state is MigrationState.RUNNING
    assert report.moved_bytes >= 1 << 20
    assert report.phase_us[3] > report.phase_us[1]  # object move dominates
    assert rt.dmo.read("echo", obj.object_id) == "state"
    assert rt.dmo.tables[Location.HOST].get(obj.object_id) is not None
    # service continues on the host
    before = gen.completed
    gen2 = client.closed_loop(dst="server", clients=2, size=256)
    bed.sim.run(until=25_000.0)
    gen2.stop()
    assert gen2.completed > 10


def test_pull_migration_brings_actor_back():
    bed = make_testbed()
    server, actor = make_echo_server(bed, migration_enabled=True,
                                     mean_thresh_us=30.0)
    rt = server.runtime
    server.runtime.dispatch_table["data"] = "echo"
    # place the actor on the host first
    from repro.sim import spawn

    def force():
        yield from rt.migrator.migrate_to_host(actor)

    spawn(bed.sim, force())
    bed.sim.run(until=1_000.0)
    assert actor.location is Location.HOST

    # light load → low FCFS mean → the management core should pull it back
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=1, size=256)
    bed.sim.run(until=120_000.0)
    gen.stop()
    assert actor.location is Location.NIC
    assert rt.nic_scheduler.pulls >= 1


def test_dos_actor_killed_by_watchdog():
    bed = make_testbed()
    from repro.core import IsolationPolicy
    server = bed.add_server(
        "server", LIQUIDIO_CN2350,
        config=SchedulerConfig(
            migration_enabled=False,
            isolation=IsolationPolicy(timeout_us=50.0)))

    def evil_handler(actor, msg, ctx):
        while True:  # infinite loop, but cooperative — the timer fires
            yield Timeout(10.0)

    evil = Actor("evil", evil_handler)
    good = Actor("good", echo_handler,
                 profile=WorkloadProfile("g", 1.87, 1.4, 0.6))
    server.runtime.register_actor(evil)
    server.runtime.register_actor(good)
    server.runtime.dispatch_table["data"] = "good"
    server.runtime.dispatch_table["attack"] = "evil"

    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=2, size=256)
    from repro.net import Packet
    bed.sim.post_at(100.0, bed.network.send,
                    Packet("client", "server", 64, kind="attack"))
    bed.sim.run(until=3_000.0)
    gen.stop()
    assert not evil.schedulable  # killed
    assert server.runtime.config.isolation.kills == ["evil"]
    assert gen.completed > 50  # good actor kept running


def test_scheduler_counts_forwarding_ops():
    bed = make_testbed()
    server, _ = make_echo_server(bed)
    rt = server.runtime
    sent = []
    rt.nic.traffic_manager.push(WorkItem(
        forward_cost_us=0.2, forward_action=lambda: sent.append(1),
        arrived_at=bed.sim.now))
    bed.sim.run(until=10.0)
    assert sent == [1]
    assert rt.nic_scheduler.forwards_completed == 1


# -- idle host workers: doorbell wakes on the 0.5 µs poll lattice ------------

def _lattice_ceil(t):
    """The first point of the poll lattice of a worker idle since t=0
    (0.5, 1.0, ... by repeated float addition) at or after ``t``."""
    point = 0.5
    while point < t:
        point += 0.5
    return point


def _idle_host_runtime(reliable=False, host_workers=1):
    """A server whose host workers parked at t=0 (lattice 0.5, 1.0, ...)
    with one pinned host actor, and a log of every later host-worker
    ring poll as (time, took a message)."""
    bed = make_testbed()
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False),
                            host_workers=host_workers, reliable=reliable)
    rt = server.runtime

    def handler(actor, msg, ctx):
        yield ctx.compute(us=1.0)

    rt.register_actor(Actor("hosty", handler, location=Location.HOST,
                            pinned=True))
    bed.sim.run(until=0.0)          # the workers' first polls: they park
    polls = []
    source = rt.rchannel if reliable else rt.channel
    poll = source.host_poll

    def logged_poll():
        got = poll()
        polls.append((bed.sim.now, got is not None))
        return got

    source.host_poll = logged_poll
    return bed.sim, rt, polls


def _until_pickup(polls):
    """The polls up to and including the first that took a message."""
    took = [i for i, (_, got) in enumerate(polls) if got]
    return polls[:took[0] + 1] if took else polls


def _host_msg(size=64):
    return Message(target="hosty", kind="request", size=size)


def test_parked_worker_picks_up_ring_message_on_its_lattice():
    sim, rt, polls = _idle_host_runtime()
    msg = _host_msg()
    sim.post_at(3.3, rt.nic_send_to_host, msg)
    sim.run(until=50.0)
    visible = 3.3 + rt.channel.to_host.transfer_delay_us(msg)
    # one poll, at the first lattice point at or after visibility
    assert _until_pickup(polls) == [(_lattice_ceil(visible), True)]
    assert rt.host_ops == 1


def test_ring_stall_during_park_defers_pickup_to_the_stall_expiry():
    sim, rt, polls = _idle_host_runtime()
    msg = _host_msg()
    ring = rt.channel.to_host
    sim.post_at(3.3, rt.nic_send_to_host, msg)
    # the stall starts after the wake was scheduled and outlasts it
    sim.post_at(3.4, ring.stall, 7.1)
    sim.run(until=50.0)
    first = _lattice_ceil(3.3 + ring.transfer_delay_us(msg))
    assert first < 3.4 + 7.1
    # the early wake finds the ring stalled and parks until the expiry:
    # no poll in between
    assert _until_pickup(polls) == [(first, False),
                     (_lattice_ceil(ring.stalled_until), True)]


def test_torn_head_slot_delays_next_slot_by_one_lattice_step():
    sim, rt, polls = _idle_host_runtime()
    torn, good = _host_msg(), _host_msg()
    ring = rt.channel.to_host

    def send_pair():
        ring.produce(torn, corrupt=True)
        rt.nic_send_to_host(good)

    sim.post_at(3.3, send_pair)
    sim.run(until=50.0)
    first = _lattice_ceil(3.3 + ring.transfer_delay_us(torn))
    # the poll that discards the torn head returns nothing; the slot
    # behind it (already visible) is taken one lattice step later
    assert _until_pickup(polls) == [(first, False), (first + 0.5, True)]
    assert ring.checksum_failures == 1
    assert rt.host_ops == 1


def test_reliable_retransmit_wakes_parked_worker_on_its_lattice():
    sim, rt, polls = _idle_host_runtime(reliable=True)
    ring = rt.channel.to_host

    class TearFirst:
        torn = 0

        def tear_write(self, name):
            self.torn += 1
            return self.torn == 1

    ring.fault_plane = TearFirst()
    msg = _host_msg()
    sim.post_at(3.3, rt.nic_send_to_host, msg)
    sim.run(until=50.0)
    delay = ring.transfer_delay_us(msg)
    first = _lattice_ceil(3.3 + delay)
    # the nack backs the producer off 2 µs; the retransmit lands one
    # transfer later and rings the doorbell (on_deliverable["to_host"])
    resent_visible = first + rt.rchannel.RETRANSMIT_BASE_US + delay
    assert _until_pickup(polls) == [(first, False),
                                    (_lattice_ceil(resent_visible), True)]
    assert rt.rchannel.retransmits == 1
    assert rt.host_ops == 1


def test_migration_forward_wakes_parked_worker_on_its_lattice():
    sim, rt, polls = _idle_host_runtime()
    ring = rt.channel.to_host
    visible = []
    produce = ring.produce

    def logged_produce(msg, corrupt=False):
        produce(msg, corrupt=corrupt)
        visible.append(ring._buffer[-1][2])

    ring.produce = logged_produce
    seen = []

    def handler(actor, msg, ctx):
        seen.append(ctx.on_nic)
        yield ctx.compute(us=1.0)

    actor = rt.register_actor(Actor("mover", handler))

    def migrate():
        yield from rt.migrator.migrate_to_host(actor)

    spawn(sim, migrate())
    # arrives during phase 1 (prepare): buffered, forwarded in phase 4
    sim.post_at(0.1, rt.deliver, Message(target="mover", kind="request"))
    sim.run(until=20_000.0)
    assert actor.location is Location.HOST
    assert len(visible) == 1
    assert _until_pickup(polls) == [(_lattice_ceil(visible[0]), True)]
    assert seen == [False]


def test_host_to_host_route_local_wakes_parked_worker_on_its_lattice():
    sim, rt, polls = _idle_host_runtime()
    pickups = []
    get = rt.host_queue.try_get_nowait

    def logged_get():
        got = get()
        if got is not None:
            pickups.append(sim.now)
        return got

    rt.host_queue.try_get_nowait = logged_get
    sim.post_at(3.3, rt.route_local, _host_msg(), Location.HOST)
    sim.run(until=50.0)
    assert pickups == [_lattice_ceil(3.3)]
    # the worker did not wake before the pickup
    assert all(t > pickups[0] for t, _ in polls)
    assert rt.host_ops == 1


def test_run_without_horizon_terminates_on_idle_runtime():
    sim, rt, polls = _idle_host_runtime(host_workers=2)
    sim.post_at(3.3, rt.nic_send_to_host, _host_msg())
    end = sim.run()
    assert rt.host_ops == 1
    assert sim.pending() == 0
    assert end < 50.0
