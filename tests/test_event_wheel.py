"""Tests for the calendar-wheel event queue (``Simulator(queue="auto")``).

The wheel is a perf substitution, not a semantic change: every test
here drives the same pre-drawn event plan through an ``auto`` simulator
(which upgrades past the threshold) and a ``heap``-pinned one, and
asserts the observable firing order is identical.  Plans are drawn
*before* the runs so the comparison never depends on RNG call order.
"""

import random

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.engine import _WHEEL_THRESHOLD


def _fill(sim, count, horizon=1_000.0):
    """Post enough far-future ballast to cross the upgrade threshold."""
    for i in range(count):
        sim.post_at(horizon + i * 0.25, lambda: None)


def test_queue_mode_is_validated():
    with pytest.raises(SimulationError, match="queue mode"):
        Simulator(queue="bogus")


def test_upgrade_is_automatic_and_one_way():
    auto = Simulator(queue="auto")
    pinned = Simulator(queue="heap")
    _fill(auto, _WHEEL_THRESHOLD + 1)
    _fill(pinned, _WHEEL_THRESHOLD + 1)
    assert auto._wheel is not None
    assert pinned._wheel is None
    auto.run(until=10.0)          # draining below threshold stays wheeled
    assert auto._wheel is not None


def test_wheel_and_heap_fire_identical_order():
    rng = random.Random(20260808)
    plan = [(rng.uniform(0.0, 500.0), tag) for tag in range(6_000)]

    def run(queue):
        sim = Simulator(queue=queue)
        fired = []
        for when, tag in plan:
            sim.post_at(when, lambda w=when, t=tag: fired.append((w, t)))
        sim.run()
        return fired, sim.now

    wheel_fired, wheel_now = run("auto")
    heap_fired, heap_now = run("heap")
    assert len(wheel_fired) == len(plan)
    assert wheel_fired == heap_fired
    assert wheel_now == heap_now


def test_cancel_and_reschedule_survive_the_upgrade():
    rng = random.Random(7)
    plan = [(rng.uniform(0.0, 200.0), rng.random() < 0.3, tag)
            for tag in range(5_500)]

    def run(queue):
        sim = Simulator(queue=queue)
        fired = []
        handles = []
        for when, doomed, tag in plan:
            handles.append(
                (sim.call_at(when, lambda t=tag: fired.append(t)), doomed))
        for handle, doomed in handles:
            if doomed:
                handle.cancel()
        sim.run()
        return fired

    assert run("auto") == run("heap")


def test_events_posted_during_wheel_run_fire_in_order():
    def run(queue):
        sim = Simulator(queue=queue)
        fired = []

        def chain(depth):
            fired.append((sim.now, depth))
            if depth:
                sim.post(0.5, chain, depth - 1)

        _fill(sim, _WHEEL_THRESHOLD + 1)
        sim.post_at(1.0, chain, 64)
        sim.run(until=100.0)
        return fired

    assert run("auto") == run("heap")


def test_next_event_time_and_bounded_run_in_wheel_mode():
    sim = Simulator(queue="auto")
    _fill(sim, _WHEEL_THRESHOLD + 1, horizon=50.0)
    sim.post_at(7.25, lambda: None)
    assert sim.next_event_time() == 7.25
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.next_event_time() == 7.25


# -- hook contract: checker/pulse are read once per run() ---------------------

class _Checker:
    def __init__(self):
        self.scheduled = {}
        self.steps = []

    def on_schedule(self, when, seq, fn):
        self.scheduled[seq] = when

    def after_step(self, when, seq, fn):
        self.steps.append((when, seq))


class _Pulse:
    def __init__(self):
        self.times = []

    def after_step(self, now):
        self.times.append(now)


def _plan(sim, fired, rng, count, horizon):
    """Schedule ``count`` events through both APIs; cancel about a
    third of the handle ones.  Returns the number cancelled."""
    def tick():
        fired.append(sim.now)

    doomed = 0
    for i in range(count):
        when = sim.now + rng.uniform(0.0, horizon)
        if i % 2:
            sim.post_at(when, tick)
            continue
        handle = sim.call_at(when, tick)
        if rng.random() < 0.3:
            handle.cancel()
            doomed += 1
    return doomed


@pytest.mark.parametrize("mode", ["heap", "wheel", "upgrade-mid-run"])
def test_hooks_see_every_fired_event_in_order(mode):
    sim = Simulator(queue="heap" if mode == "heap" else "auto")
    chk, pl = _Checker(), _Pulse()
    sim.checker, sim.pulse = chk, pl
    fired = []
    rng = random.Random(31)
    doomed = [_plan(sim, fired, rng, 300, 50.0)]
    upgraded_in_run = []

    def burst():
        doomed[0] += _plan(sim, fired, rng, 2 * _WHEEL_THRESHOLD, 100.0)
        upgraded_in_run.append(sim._running and sim._wheel is not None)

    if mode == "wheel":
        burst()
        assert sim._wheel is not None
    else:
        sim.post_at(10.0, burst)
    sim.run()

    assert (sim._wheel is not None) == (mode != "heap")
    assert upgraded_in_run == [mode == "upgrade-mid-run"]
    assert chk.steps == sorted(chk.steps)
    assert len(chk.steps) == len(chk.scheduled) - doomed[0]
    assert all(chk.scheduled[seq] == when for when, seq in chk.steps)
    assert len(fired) == len(chk.steps) - (mode != "wheel")   # burst
    assert pl.times == [when for when, _ in chk.steps]


@pytest.mark.parametrize("queue", ["heap", "auto"])
def test_plane_installed_between_bounded_runs_sees_the_rest(queue):
    # The shard executor's pattern: bounded run(until=...) windows, with
    # a plane attached between two of them.
    sim = Simulator(queue=queue)
    fired = []
    _plan(sim, fired, random.Random(5), 2 * _WHEEL_THRESHOLD, 100.0)
    assert (sim._wheel is not None) == (queue == "auto")
    sim.run(until=40.0)
    before = len(fired)
    assert 0 < before
    chk, pl = _Checker(), _Pulse()
    sim.checker, sim.pulse = chk, pl
    sim.run(until=70.0)
    sim.run()
    assert len(chk.steps) == len(fired) - before > 0
    assert chk.steps == sorted(chk.steps)
    assert all(40.0 < when for when, _ in chk.steps)
    # the pulse also sees the bounded call's final advance to 70.0
    steps = [when for when, _ in chk.steps]
    assert pl.times == [t for t in steps if t <= 70.0] + [70.0] + \
        [t for t in steps if t > 70.0]
