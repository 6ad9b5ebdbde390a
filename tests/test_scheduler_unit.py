"""Direct unit tests of NicScheduler against a scripted work queue."""

import pytest

from repro.core.actor import Actor, ActorTable, Location, Message
from repro.core.scheduler import NicScheduler, SchedulerConfig, WorkItem
from repro.nic import TrafficManager
from repro.sim import Simulator, Timeout


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
