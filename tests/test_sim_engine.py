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
    sim.call_at(10.0, order.append, "late")
    sim.call_at(1.0, order.append, "early")
    sim.call_at(5.0, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.call_at(3.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_now_reflects_current_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_call_in_is_relative():
    sim = Simulator()
    times = []
    def chain():
        times.append(sim.now)
        if sim.now < 4:
            sim.call_in(2.0, chain)
    sim.call_in(2.0, chain)
    sim.run()
    assert times == [2.0, 4.0]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.call_at(100.0, fired.append, "x")
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
    sim.call_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_is_an_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.call_at(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.fired


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: sim.call_in(1.0, fired.append, sim.now + 1.0))
    sim.run()
    assert fired == [2.0]


def test_pending_counts_live_events():
    sim = Simulator()
    h1 = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
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


def test_post_and_call_at_share_the_tie_break_sequence():
    # Same-time events must fire in scheduling order regardless of which
    # API scheduled them: the two entry shapes share one seq counter.
    sim = Simulator()
    order = []
    sim.post_at(5.0, order.append, "post-1")
    sim.call_at(5.0, order.append, "call-2")
    sim.post_at(5.0, order.append, "post-3")
    sim.call_at(5.0, order.append, "call-4")
    sim.run()
    assert order == ["post-1", "call-2", "post-3", "call-4"]


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
    sim.call_in(2.0, lambda: None)
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


# -- pending() counter bookkeeping ------------------------------------------

def test_pending_is_consistent_through_cancel_and_run():
    sim = Simulator()
    handles = [sim.call_at(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending() == 10
    for h in handles[:4]:
        h.cancel()
    assert sim.pending() == 6
    sim.run(until=5.0)   # events at t=5,6,...,10 minus the cancelled ones
    assert sim.pending() == sum(
        1 for h in handles if not h.cancelled and not h.fired)
    sim.run()
    assert sim.pending() == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending() == 1


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    keep = handle
    sim.call_at(2.0, lambda: None)
    sim.run()
    assert keep.fired
    keep.cancel()            # must not corrupt the live counter
    assert not keep.cancelled
    assert sim.pending() == 0


# -- tombstone compaction ----------------------------------------------------

def test_compaction_bounds_the_heap_under_watchdog_load():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    peak = [0]
    count = [0]

    def work():
        count[0] += 1
        watchdog = sim.call_in(1e9, lambda: None)
        watchdog.cancel()
        peak[0] = max(peak[0], len(sim._heap))
        if count[0] < 10_000:
            sim.call_in(1.0, work)

    sim.call_in(1.0, work)
    sim.run()
    # without compaction the heap would hold ~10k tombstones
    assert peak[0] <= 4 * _COMPACT_MIN_DEAD
    assert count[0] == 10_000


def test_compaction_preserves_event_order():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    order = []
    doomed = [sim.call_at(500.0 + i, lambda: None)
              for i in range(2 * _COMPACT_MIN_DEAD)]
    sim.call_at(3.0, order.append, "c")
    sim.post_at(1.0, order.append, "a")
    sim.call_at(2.0, order.append, "b")
    for h in doomed:
        h.cancel()           # triggers in-place compaction
    assert sim.pending() == 3
    sim.run()
    assert order == ["a", "b", "c"]


def test_compaction_inside_run_keeps_loop_alive():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    fired = []

    def arm_and_cancel():
        doomed = [sim.call_in(1e6, lambda: None)
                  for _ in range(2 * _COMPACT_MIN_DEAD)]
        for h in doomed:
            h.cancel()       # compacts self._heap while run() iterates it
        sim.post(1.0, fired.append, "after")

    sim.post(1.0, arm_and_cancel)
    sim.run()
    assert fired == ["after"]


# -- handle identity ---------------------------------------------------------

def test_retained_handle_is_never_recycled():
    sim = Simulator()
    kept = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    sim.run()
    assert kept.fired
    # schedule many more events; none may alias the retained handle
    fresh = [sim.call_at(10.0 + i, lambda: None) for i in range(8)]
    assert all(h is not kept for h in fresh)
    assert kept.fired        # untouched by later scheduling


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


def test_hooks_see_every_fired_event_in_order():
    sim = Simulator()
    chk, pl = _Checker(), _Pulse()
    sim.checker, sim.pulse = chk, pl
    fired = []
    rng = random.Random(31)
    doomed = [_plan(sim, fired, rng, 300, 50.0)]

    def burst():
        doomed[0] += _plan(sim, fired, rng, 1_000, 100.0)

    sim.post_at(10.0, burst)
    sim.run()

    assert chk.steps == sorted(chk.steps)
    assert len(chk.steps) == len(chk.scheduled) - doomed[0]
    assert all(chk.scheduled[seq] == when for when, seq in chk.steps)
    assert len(fired) == len(chk.steps) - 1     # burst
    assert pl.times == [when for when, _ in chk.steps]


def test_plane_installed_between_bounded_runs_sees_the_rest():
    # The shard executor's pattern: bounded run(until=...) windows, with
    # a plane attached between two of them.
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
