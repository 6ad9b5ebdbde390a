"""Injection tests: each invariant monitor catches its planted violation
and localizes it to the right monitor/component."""

import pytest

from repro.apps.rkv import MultiPaxosNode
from repro.check import (
    ChannelMonitor,
    CheckPlane,
    DmoMonitor,
    InvariantViolation,
    PaxosMonitor,
    RingMonitor,
    SchedulerMonitor,
)
from repro.core import (
    Actor,
    ActorTable,
    Channel,
    DmoManager,
    Location,
    Message,
    Ring,
    SchedulerConfig,
)
from repro.core.channel import ReliableChannel
from repro.core.scheduler import NicScheduler, WorkItem
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350, DmaEngine, TrafficManager, WorkloadProfile
from repro.sim import Simulator, Timeout


# -- scheduler -------------------------------------------------------------------

def _scheduler(sim, cores=2):
    table = ActorTable()
    sched = NicScheduler(
        sim, num_cores=cores, work_queue=TrafficManager(sim, hardware=True),
        actor_table=table,
        executor=lambda core, actor, msg: iter(()),
        config=SchedulerConfig(migration_enabled=False,
                               downgrade_enabled=False, autoscale=False),
        quantum_fn=lambda actor: 5.0)
    return sched, table


def _handler(actor, msg, ctx):
    yield Timeout(1.0)


def test_scheduler_quantum_conservation_violation():
    sim = Simulator()
    sched, table = _scheduler(sim)
    monitor = SchedulerMonitor(sched)
    assert list(monitor.check(sim.now)) == []
    sched.quantum_granted_us += 123.0          # granted µs that nobody holds
    messages = list(monitor.check(sim.now))
    assert len(messages) == 1
    assert "not conserved" in messages[0]
    assert monitor.name == "scheduler"


def test_scheduler_non_drr_deficit_violation():
    sim = Simulator()
    sched, table = _scheduler(sim)
    actor = Actor("lsm", _handler)
    table.register(actor)
    assert list(SchedulerMonitor(sched).check(sim.now)) == []
    actor.deficit = 7.5                        # deficit outside the DRR group
    messages = list(SchedulerMonitor(sched).check(sim.now))
    assert len(messages) == 1
    assert "'lsm'" in messages[0] and "outside the DRR group" in messages[0]


def test_scheduler_starvation_detected_once():
    sim = Simulator()
    sched, table = _scheduler(sim)
    actor = Actor("stuck", _handler)
    table.register(actor)
    actor.is_drr = True
    actor.mailbox.append(Message(target="stuck"))
    sched.drr_runnable.append(actor)
    monitor = SchedulerMonitor(sched, starvation_bound_us=1_000.0)
    assert list(monitor.check(0.0)) == []      # progress clock starts
    messages = list(monitor.check(5_000.0))    # no progress for 5ms
    assert len(messages) == 1
    assert "'stuck'" in messages[0] and "starved" in messages[0]
    # an ongoing episode is reported once, not every sweep
    assert list(monitor.check(6_000.0)) == []
    # progress (requests_seen advances) resets the episode
    actor.requests_seen += 1
    assert list(monitor.check(7_000.0)) == []


# -- DMO -------------------------------------------------------------------------

def test_dmo_duplicate_table_entry_violation():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("alice")
    obj = dmo.malloc("alice", 256)
    monitor = DmoMonitor(dmo, component="s0")
    assert list(monitor.check(0.0)) == []
    dmo.tables[Location.HOST].insert(obj)      # single-copy invariant broken
    messages = list(monitor.check(0.0))
    assert any("present in both" in m for m in messages)
    assert monitor.component == "s0"


def test_dmo_index_out_of_step_with_tables_violation():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("alice")
    obj = dmo.malloc("alice", 256)
    monitor = DmoMonitor(dmo)
    assert list(monitor.check(0.0)) == []
    dmo.tables[Location.NIC].remove(obj.object_id)   # index left behind
    messages = list(monitor.check(0.0))
    assert any(f"object {obj.object_id} is in the translation index" in m
               for m in messages)
    dmo.tables[Location.NIC].insert(obj)
    del dmo.index[obj.object_id]                     # table left behind
    messages = list(monitor.check(0.0))
    assert any(f"object {obj.object_id} sits in the nic table" in m
               for m in messages)


def test_dmo_region_accounting_violation():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("alice")
    dmo.malloc("alice", 256)
    monitor = DmoMonitor(dmo)
    assert list(monitor.check(0.0)) == []
    dmo.regions["alice"].used += 64            # refcount/usage corruption
    messages = list(monitor.check(0.0))
    assert len(messages) == 1
    assert "accounts" in messages[0] and "live objects total 256B" in messages[0]


def test_dmo_location_mismatch_violation():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("alice")
    obj = dmo.malloc("alice", 128, location=Location.NIC)
    obj.location = Location.HOST               # field disagrees with table
    messages = list(DmoMonitor(dmo).check(0.0))
    assert any("claims location" in m for m in messages)


# -- ring ------------------------------------------------------------------------

def test_ring_slot_leak_violation():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8, name="s0.to_host")
    for i in range(3):
        ring.produce(Message(target=f"m{i}", size=64))
    sim.run()
    monitor = RingMonitor(ring)
    assert list(monitor.check(sim.now)) == []
    ring._buffer.pop()                         # slot vanishes unaccounted
    messages = list(monitor.check(sim.now))
    assert any("slot leak" in m for m in messages)
    assert any("free-slot accounting broken" in m for m in messages)
    assert monitor.component == "s0.to_host"


def test_ring_visibility_order_violation():
    sim = Simulator()
    ring = Ring(sim, DmaEngine(sim), slots=8)
    for i in range(2):
        ring.produce(Message(target=f"m{i}", size=64))
    sim.run()
    msg, checksum, _visible = ring._buffer[0]
    ring._buffer[0] = (msg, checksum, 1e9)     # DMA ordering broken
    messages = list(RingMonitor(ring).check(sim.now))
    assert any("visibility order broken" in m for m in messages)


# -- reliable channel ------------------------------------------------------------

def test_channel_at_most_once_violation():
    sim = Simulator()
    channel = Channel(sim, DmaEngine(sim), slots=64, name="s0")
    rchannel = ReliableChannel(channel, sim)
    for i in range(4):
        rchannel.nic_send(Message(target="echo", size=64))
    sim.run()
    while rchannel.host_poll() is not None:
        pass
    monitor = ChannelMonitor(rchannel)
    assert list(monitor.check(sim.now)) == []
    state = rchannel._dirs["to_host"]
    state.released["echo"] += 1                # one delivery too many
    messages = list(monitor.check(sim.now))
    assert len(messages) == 1
    assert "at-most-once" in messages[0]
    assert monitor.component == "s0"


def test_channel_release_point_regression_violation():
    sim = Simulator()
    channel = Channel(sim, DmaEngine(sim), slots=64)
    rchannel = ReliableChannel(channel, sim)
    rchannel.nic_send(Message(target="echo", size=64))
    sim.run()
    rchannel.host_poll()
    monitor = ChannelMonitor(rchannel)
    assert list(monitor.check(sim.now)) == []
    state = rchannel._dirs["to_host"]
    state.expected["echo"] -= 1                # sequence went backwards
    messages = list(monitor.check(sim.now))
    assert any("went backwards" in m for m in messages)


# -- paxos -----------------------------------------------------------------------

def _cluster(n=3):
    names = [f"n{i}" for i in range(n)]
    queue = []
    nodes = {}
    for name in names:
        peers = [p for p in names if p != name]
        nodes[name] = MultiPaxosNode(
            name, peers,
            send=lambda dst, m, src=name: queue.append((dst, m)),
            initial_leader="n0")
    return nodes, queue


def _drive(nodes, queue):
    steps = 0
    while queue and steps < 10_000:
        dst, msg = queue.pop(0)
        nodes[dst].handle(msg)
        steps += 1


def test_paxos_conflicting_commit_reported():
    nodes, queue = _cluster()
    monitor = PaxosMonitor()
    for node in nodes.values():
        monitor.watch("g0", node)
    nodes["n0"].client_request("v0")
    _drive(nodes, queue)
    assert nodes["n0"].log[0].committed
    assert list(monitor.check(0.0)) == []
    # a replica commits a different value at an already-chosen instance
    monitor.on_commit("g0", "n2", 0, "evil")
    messages = list(monitor.check(0.0))
    assert len(messages) == 1
    assert "instance 0" in messages[0] and "'evil'" in messages[0]


def test_paxos_conflict_raises_synchronously_under_strict_plane():
    sim = Simulator()
    plane = CheckPlane(sim, strict=True)
    nodes, queue = _cluster()
    plane.watch_paxos("g0", *nodes.values())
    nodes["n0"].client_request("v0")
    _drive(nodes, queue)
    # the node's checker hook fires inside _commit: a conflicting commit
    # raises at the committing call site, localized to the group
    with pytest.raises(InvariantViolation) as err:
        nodes["n1"].checker.note_commit("n1", 0, "evil")
    assert err.value.violation.monitor == "paxos"
    assert err.value.violation.component == "g0"
    assert plane.violations


def test_paxos_log_rescan_catches_direct_corruption():
    nodes, queue = _cluster()
    monitor = PaxosMonitor()
    for node in nodes.values():
        monitor.watch("g0", node)
    nodes["n0"].client_request("v0")
    _drive(nodes, queue)
    assert list(monitor.check(0.0)) == []
    nodes["n2"].log[0].value = "evil"          # corrupt one replica's log
    messages = list(monitor.check(0.0))
    assert len(messages) == 1
    assert "log of 'n2'" in messages[0]


# -- CheckPlane wiring -----------------------------------------------------------

def _echo_handler(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    ctx.reply(msg, payload=msg.payload, size=msg.size)


def test_checkplane_auto_wires_runtime_monitors():
    bed = make_testbed()
    plane = CheckPlane(bed.sim, every=64, strict=True)
    server = bed.add_server("s0", LIQUIDIO_CN2350)
    names = sorted(m.name for m in plane.monitors)
    assert names.count("ring") == 2            # to_host + to_nic
    assert "scheduler" in names and "dmo" in names
    actor = Actor("echo", _echo_handler,
                  profile=WorkloadProfile("echo", 1.87, 1.4, 0.6))
    server.runtime.register_actor(actor)
    server.runtime.dispatch_table["data"] = "echo"
    client = bed.add_client("client")
    gen = client.closed_loop(dst="s0", clients=4, size=256)
    bed.sim.run(until=2_000.0)                 # strict: violations raise
    gen.stop()
    assert gen.completed > 10
    assert plane.violations == []


def test_checkplane_monitors_individually_toggleable():
    sim = Simulator()
    plane = CheckPlane(sim, strict=True)
    ring = Ring(sim, DmaEngine(sim), slots=8)
    ring.produce(Message(target="m", size=64))
    sim.run()
    plane.add_monitor(RingMonitor(ring))
    ring._buffer.pop()                         # planted violation
    plane.disable("ring")
    plane.check_now()                          # disabled: nothing raised
    assert plane.violations == []
    plane.enable("ring")
    with pytest.raises(InvariantViolation):
        plane.check_now()
    assert plane.violations[0].monitor == "ring"


def test_checkplane_nonstrict_collects_instead_of_raising():
    sim = Simulator()
    plane = CheckPlane(sim, strict=False)
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("a")
    dmo.malloc("a", 100)
    plane.add_monitor(DmoMonitor(dmo, component="s0"))
    dmo.regions["a"].used += 1
    plane.check_now()
    assert len(plane.violations) == 1
    assert plane.violations[0].monitor == "dmo"
    assert plane.violations[0].component == "s0"
