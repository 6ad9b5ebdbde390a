"""Direct unit tests of NicScheduler against a scripted work queue."""

import pytest

from repro.core.actor import Actor, ActorTable, Location, Message
from repro.core.scheduler import NicScheduler, SchedulerConfig, WorkItem
from repro.nic import TrafficManager
from repro.sim import Simulator, Timeout, UtilizationTracker


class Harness:
    """Minimal scheduler fixture: real traffic manager, scripted actors."""

    def __init__(self, cores=4, config=None, quantum=5.0):
        self.sim = Simulator()
        self.queue = TrafficManager(self.sim, hardware=True)
        self.table = ActorTable()
        self.executed = []
        self.scheduler = NicScheduler(
            self.sim,
            num_cores=cores,
            work_queue=self.queue,
            actor_table=self.table,
            executor=self._executor,
            config=config or SchedulerConfig(migration_enabled=False,
                                             downgrade_enabled=False,
                                             autoscale=False),
            quantum_fn=lambda actor: quantum,
        )

    def add_actor(self, name, service_us, concurrent=True):
        def handler(actor, msg, ctx):
            yield Timeout(service_us)

        actor = Actor(name, handler, concurrent=concurrent)
        self.table.register(actor)
        return actor

    def _executor(self, core_id, actor, msg):
        yield from actor.exec_handler(actor, msg, None)
        self.executed.append((self.sim.now, actor.name, msg.msg_id))

    def push(self, actor_name, at=None):
        msg = Message(target=actor_name)
        msg.meta["nic_arrival"] = at if at is not None else self.sim.now
        item = WorkItem(message=msg, arrived_at=msg.meta["nic_arrival"])
        if at is None:
            self.queue.push(item)
        else:
            self.sim.post_at(at, self.queue.push, item)
        return msg


def test_fcfs_runs_to_completion_in_arrival_order():
    h = Harness(cores=1)
    h.add_actor("a", service_us=10.0)
    first = h.push("a", at=0.0)
    second = h.push("a", at=1.0)
    h.sim.run(until=100.0)
    h.scheduler.stop()
    assert [m for _, _, m in h.executed] == [first.msg_id, second.msg_id]
    assert h.scheduler.ops_completed == 2


def test_drr_actor_requests_go_to_mailbox_and_run_on_drr_core():
    h = Harness(cores=2)
    actor = h.add_actor("d", service_us=8.0)
    actor.is_drr = True
    actor.service.record(8.0)
    h.scheduler.drr_runnable.append(actor)
    h.scheduler.core_mode[1] = "drr"
    for _ in range(3):
        h.push("d")
    h.sim.run(until=200.0)
    h.scheduler.stop()
    assert len(h.executed) == 3
    # served either by the DRR core or by a work-stealing FCFS core
    assert (h.scheduler.drr_tracker.count
            + h.scheduler.fcfs_tracker.count) >= 3
    assert not actor.mailbox


def test_forward_items_counted_separately():
    h = Harness(cores=1)
    done = []
    h.queue.push(WorkItem(forward_cost_us=0.5,
                          forward_action=lambda: done.append(1),
                          arrived_at=0.0))
    h.sim.run(until=10.0)
    h.scheduler.stop()
    assert done == [1]
    assert h.scheduler.forwards_completed == 1
    assert h.scheduler.ops_completed == 0


def test_deficit_accumulates_before_heavy_execution():
    # quantum 5µs, service 20µs → the DRR core must scan ≥4 rounds before
    # the first execution; lighter work on the FCFS core proceeds meanwhile
    h = Harness(cores=2, quantum=5.0)
    heavy = h.add_actor("heavy", service_us=20.0)
    heavy.is_drr = True
    heavy.service.record(20.0)
    h.scheduler.drr_runnable.append(heavy)
    h.scheduler.core_mode[1] = "drr"
    h.add_actor("light", service_us=1.0)
    h.push("heavy", at=0.0)
    for i in range(5):
        h.push("light", at=0.5 * i)
    h.sim.run(until=100.0)
    h.scheduler.stop()
    light_times = [t for t, name, _ in h.executed if name == "light"]
    heavy_times = [t for t, name, _ in h.executed if name == "heavy"]
    assert len(light_times) == 5 and len(heavy_times) == 1
    # all light requests finish before the heavy one
    assert max(light_times) < heavy_times[0]


def test_exclusive_actor_requeues_contended_work():
    h = Harness(cores=4)
    h.add_actor("x", service_us=10.0, concurrent=False)
    for _ in range(4):
        h.push("x")
    h.sim.run(until=200.0)
    h.scheduler.stop()
    # all four execute despite the exec_lock, strictly serialized
    times = sorted(t for t, _, _ in h.executed)
    assert len(times) == 4
    for a, b in zip(times, times[1:]):
        assert b - a >= 10.0 - 1e-6


def test_unknown_target_dropped_without_crash():
    h = Harness(cores=1)
    h.push("ghost")
    h.sim.run(until=10.0)
    h.scheduler.stop()
    assert h.executed == []


def test_wait_statistic_measures_queueing_not_service():
    h = Harness(cores=1)
    h.add_actor("a", service_us=50.0)
    h.push("a", at=0.0)   # served immediately: wait ≈ 0
    h.push("a", at=1.0)   # waits ~49µs behind the first
    h.sim.run(until=300.0)
    h.scheduler.stop()
    tracker = h.scheduler.fcfs_tracker
    assert tracker.count == 2
    # EWMA mean of (≈0, ≈49) stays well below the 50µs service time
    assert tracker.mu < 30.0


def _bare_scheduler(sim, queue, cores, table=None, executor=None):
    """A scheduler with no adaptation and one utilization tracker per
    core, so each core's accounting can be read back."""
    util = [UtilizationTracker() for _ in range(cores)]
    sched = NicScheduler(
        sim, num_cores=cores, work_queue=queue,
        actor_table=table or ActorTable(), executor=executor,
        config=SchedulerConfig(migration_enabled=False,
                               downgrade_enabled=False, autoscale=False),
        core_util=util)
    return sched, util


def test_failed_core_blocked_on_the_queue_takes_no_item():
    sim = Simulator()
    queue = TrafficManager(sim, hardware=True)
    sched, util = _bare_scheduler(sim, queue, cores=2)
    served = []
    sim.run(until=1.0)                 # both cores block on the empty queue
    assert sched.fail_core(0)
    queue.push(WorkItem(forward_cost_us=0.5,
                        forward_action=lambda: served.append(sim.now),
                        arrived_at=1.0))
    sim.run(until=10.0)
    sched.stop()
    done = (1.0 + queue.dequeue_sync_us) + 0.5
    assert served == [done]
    assert sched.forwards_completed == 1
    # core 1 served it; the failed core's accounting did not move
    assert util[0].busy_time == 0.0
    assert util[1].busy_time == done - 1.0


def test_stalled_core_blocked_on_the_queue_takes_no_item():
    sim = Simulator()
    queue = TrafficManager(sim, hardware=True)
    sched, util = _bare_scheduler(sim, queue, cores=2)
    served = []

    def forward(at):
        return WorkItem(forward_cost_us=0.5,
                        forward_action=lambda: served.append(sim.now),
                        arrived_at=at)

    sim.run(until=1.0)                 # both cores block on the empty queue
    assert sched.stall_core(0, 100.0)
    queue.push(forward(1.0))
    sim.run(until=50.0)
    done = (1.0 + queue.dequeue_sync_us) + 0.5
    assert served == [done]
    # core 1 served it; the stalled core's accounting did not move
    assert util[0].busy_time == 0.0
    assert util[1].busy_time == done - 1.0
    # once the stall is over, core 0 waits on the queue again
    sim.post_at(200.0, queue.push, forward(200.0))
    sim.post_at(200.0, queue.push, forward(200.0))
    sim.run(until=300.0)
    sched.stop()
    assert len(served) == 3
    assert util[0].busy_time == util[1].busy_time - (done - 1.0) > 0.0


def test_each_item_charges_sync_forward_cost_and_account_once():
    """The FCFS loop takes items two ways: ``try_pop`` when work is
    queued (the core pays the sync and a raw forward's cost itself) and
    a blocking ``pop`` (the queue charges them).  Either way an item
    pays them once and is accounted once."""
    sim = Simulator()
    queue = TrafficManager(sim, hardware=False)
    sync = queue.dequeue_sync_us
    table = ActorTable()

    def handler(actor, msg, ctx):
        yield Timeout(2.0)

    table.register(Actor("a", handler))
    forwarded = []

    def forward(cost, at):
        return WorkItem(forward_cost_us=cost, arrived_at=at,
                        forward_action=lambda: forwarded.append(sim.now))

    def message(at):
        msg = Message(target="a")
        msg.meta["nic_arrival"] = at
        return WorkItem(message=msg, arrived_at=at)

    # queued before the core starts: taken with try_pop
    queue.push(forward(0.3, 0.0))
    queue.push(message(0.0))
    # pushed while the core blocks on the empty queue
    sim.post_at(10.0, queue.push, forward(0.1, 10.0))
    sim.post_at(20.0, queue.push, message(20.0))
    sched, util = _bare_scheduler(
        sim, queue, cores=1, table=table,
        executor=lambda core, actor, msg: actor.exec_handler(actor, msg,
                                                              None))
    accounted = []
    account = sched._account

    def counted(core_id, group, busy_us):
        accounted.append((sim.now, group, busy_us))
        account(core_id, group, busy_us)

    sched._account = counted
    sim.run(until=50.0)
    sched.stop()

    f1 = (0.0 + sync) + 0.3            # try_pop forward: start 0
    e2 = (f1 + sync) + 2.0             # try_pop message: runs after sync
    f3 = (10.0 + sync) + 0.1           # handed forward: start 10
    e4 = (20.0 + sync) + 2.0           # handed message: no forward cost
    expected = [(f1, "fcfs", f1 - 0.0), (e2, "fcfs", e2 - (f1 + sync)),
                (f3, "fcfs", f3 - 10.0), (e4, "fcfs", e4 - (20.0 + sync))]
    assert accounted == expected
    assert forwarded == [f1, f3]
    assert sched.forwards_completed == 2 and sched.ops_completed == 2
    busy = 0.0
    for _, _, b in expected:
        busy += b
    assert util[0].busy_time == busy
