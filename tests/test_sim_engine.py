"""Unit tests for the DES engine."""

import random

import pytest

from repro.sim import SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.post_at(10.0, order.append, "late")
    sim.post_at(1.0, order.append, "early")
    sim.post_at(5.0, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.post_at(3.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_now_reflects_current_event_time():
    sim = Simulator()
    seen = []
    sim.post_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_post_is_relative():
    sim = Simulator()
    times = []
    def chain():
        times.append(sim.now)
        if sim.now < 4:
            sim.post(2.0, chain)
    sim.post(2.0, chain)
    sim.run()
    assert times == [2.0, 4.0]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.post_at(100.0, fired.append, "x")
    sim.run(until=50.0)
    assert fired == []
    assert sim.now == 50.0
    sim.run()
    assert fired == ["x"]


def test_run_until_advances_time_with_empty_heap():
    sim = Simulator()
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_scheduling_into_the_past_is_an_error():
    sim = Simulator()
    sim.post_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)


def test_negative_delay_is_an_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []
    sim.post_at(1.0, lambda: sim.post(1.0, fired.append, sim.now + 1.0))
    sim.run()
    assert fired == [2.0]


def test_pending_counts_live_events():
    sim = Simulator()
    sim.post_at(1.0, lambda: None)
    sim.post_at(2.0, lambda: None)
    assert sim.pending() == 2
    sim.run(until=1.5)
    assert sim.pending() == 1


# -- fast path: post / post_at ----------------------------------------------

def test_post_fires_in_time_order_with_args():
    sim = Simulator()
    order = []
    sim.post(10.0, order.append, "late")
    sim.post(1.0, order.append, "early")
    sim.post_at(5.0, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_post_into_the_past_is_an_error():
    sim = Simulator()
    sim.post(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)


def test_post_counts_toward_pending():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_run_until_stops_before_posted_event():
    sim = Simulator()
    fired = []
    sim.post(10.0, fired.append, "x")
    sim.run(until=5.0)
    assert fired == [] and sim.now == 5.0 and sim.pending() == 1
    sim.run()
    assert fired == ["x"]


# -- bounded runs ------------------------------------------------------------

def test_next_event_time_and_bounded_run():
    sim = Simulator()
    for i in range(64):
        sim.post_at(50.0 + i * 0.25, lambda: None)
    sim.post_at(7.25, lambda: None)
    assert sim.next_event_time() == 7.25
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.next_event_time() == 7.25
    sim.run(until=10.0)
    assert sim.next_event_time() == 50.0
    sim.run()
    assert sim.next_event_time() is None


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
    """Schedule ``count`` events at random times within ``horizon``."""
    def tick():
        fired.append(sim.now)

    for _ in range(count):
        sim.post_at(sim.now + rng.uniform(0.0, horizon), tick)


def test_hooks_see_every_fired_event_in_order():
    sim = Simulator()
    chk, pl = _Checker(), _Pulse()
    sim.checker, sim.pulse = chk, pl
    fired = []
    rng = random.Random(31)
    _plan(sim, fired, rng, 300, 50.0)

    def burst():
        _plan(sim, fired, rng, 1_000, 100.0)

    sim.post_at(10.0, burst)
    sim.run()

    assert chk.steps == sorted(chk.steps)
    assert len(chk.steps) == len(chk.scheduled)
    assert all(chk.scheduled[seq] == when for when, seq in chk.steps)
    assert len(fired) == len(chk.steps) - 1     # burst
    assert pl.times == [when for when, _ in chk.steps]


def test_plane_installed_between_bounded_runs_sees_the_rest():
    # Bounded run(until=...) windows, with a plane attached between two
    # of them.
    sim = Simulator()
    fired = []
    _plan(sim, fired, random.Random(5), 1_000, 100.0)
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
