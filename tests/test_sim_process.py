"""Unit tests for generator processes, signals, stores and resources."""

from collections import deque

import pytest

from repro.sim import (
    Doorbell,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    Store,
    Timeout,
    spawn,
)


def test_timeout_advances_virtual_time():
    sim = Simulator()
    marks = []

    def body():
        marks.append(sim.now)
        yield Timeout(5.0)
        marks.append(sim.now)
        yield Timeout(2.5)
        marks.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert marks == [0.0, 5.0, 7.5]


def test_signal_wakes_all_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(tag):
        value = yield sig
        woken.append((tag, value, sim.now))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.post_at(4.0, sig.trigger, "payload")
    sim.run()
    assert sorted(woken) == [("a", "payload", 4.0), ("b", "payload", 4.0)]


def test_signal_double_trigger_is_error():
    sim = Simulator()
    sig = Signal(sim)
    sig.trigger()
    with pytest.raises(SimulationError):
        sig.trigger()


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    spawn(sim, consumer())
    sim.post_at(6.0, store.put_nowait, "pkt")
    sim.run()
    assert got == [("pkt", 6.0)]


def test_store_is_fifo_for_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    spawn(sim, consumer("first"))
    spawn(sim, consumer("second"))
    store.put_nowait(1)
    store.put_nowait(2)
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_bounded_store_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield Timeout(5.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert ("put-a", 0.0) in log
    put_b = [entry for entry in log if entry[0] == "put-b"]
    assert put_b and put_b[0][1] == 5.0


def test_store_put_nowait_full_raises():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put_nowait("x")
    with pytest.raises(SimulationError):
        store.put_nowait("y")


def test_store_try_get_nowait():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get_nowait() is None
    store.put_nowait(9)
    assert store.try_get_nowait() == 9


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def user(tag, hold):
        yield res.acquire()
        start = sim.now
        yield Timeout(hold)
        res.release()
        spans.append((tag, start, sim.now))

    spawn(sim, user("a", 4.0))
    spawn(sim, user("b", 2.0))
    sim.run()
    assert spans == [("a", 0.0, 4.0), ("b", 4.0, 6.0)]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def user(hold):
        yield res.acquire()
        yield Timeout(hold)
        res.release()
        ends.append(sim.now)

    for _ in range(2):
        spawn(sim, user(3.0))
    sim.run()
    assert ends == [3.0, 3.0]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


# -- Doorbell: parked pollers wake as the busy-pollers they replace ----------

def _pollers(parked, starts, works, arrivals, horizon=60.0, delay=0.0):
    """Pollers that take items off one queue, either busy-polling every
    0.5 µs or parked on a Doorbell; an item becomes visible ``delay``
    after it arrives, like a ring slot.  Returns (time, poller, item)
    takes."""
    sim = Simulator()
    queue = deque()             # (visible at, item)
    bell = Doorbell(sim, 0.5, lambda: queue[0][0] if queue else None)
    takes = []

    def poller(name, start, work):
        if start:
            yield Timeout(start)
        while True:
            if not queue or queue[0][0] > sim.now:
                yield bell.park() if parked else Timeout(0.5)
                continue
            takes.append((sim.now, name, queue.popleft()[1]))
            yield Timeout(work)

    def arrive(item):
        queue.append((sim.now + delay, item))
        bell.ring()

    for i, (start, work) in enumerate(zip(starts, works)):
        spawn(sim, poller(f"p{i}", start, work))
    for item, when in enumerate(arrivals):
        sim.post_at(when, arrive, item)
    sim.run(until=horizon)
    return takes


_ARRIVALS = (3.1, 3.1, 3.6, 7.35, 7.35, 7.35, 12.1, 12.2, 20.85, 21.1, 21.1,
             30.6, 30.6, 30.6, 30.6, 41.35)


@pytest.mark.parametrize("start, work, arrivals, delay", [
    (0.0, 1.0, _ARRIVALS, 0.0),
    (0.3, 0.75, _ARRIVALS, 0.0),
    # items become visible 2.6 µs after they arrive, like a ring slot
    (0.8, 0.25, (1.1, 1.85, 3.6, 5.35), 2.6),
])
def test_parked_poller_takes_match_busy_polling(start, work, arrivals, delay):
    busy = _pollers(False, (start,), (work,), arrivals, delay=delay)
    assert len(busy) == len(arrivals)
    assert _pollers(True, (start,), (work,), arrivals, delay=delay) == busy


def test_pollers_on_one_lattice_take_at_busy_poll_times():
    # which of the tied pollers takes an item may differ from busy
    # polling; when and in what order items are taken may not
    args = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), _ARRIVALS)
    busy = _pollers(False, *args)
    assert len(busy) == len(_ARRIVALS)
    assert ([(t, item) for t, _, item in _pollers(True, *args)]
            == [(t, item) for t, _, item in busy])


def test_tied_wakes_resume_in_park_order():
    # p1 parks at 0, p0 at 0.5; both wake at 3.5 and p1 polls first
    takes = _pollers(True, (0.5, 0.0), (1.0, 1.0), (3.1,))
    assert takes == [(3.5, "p1", 0)]


def test_earlier_ring_supersedes_a_scheduled_wake():
    sim = Simulator()
    ready = [None]
    bell = Doorbell(sim, 0.5, lambda: ready[0])
    resumes = []

    def poller():
        while True:
            yield bell.park()
            resumes.append(sim.now)
            ready[0] = None            # took it

    def ring(at):
        ready[0] = at
        bell.ring()

    spawn(sim, poller())
    sim.post_at(1.0, ring, 10.0)       # wake posted for 10.0 ...
    sim.post_at(2.0, ring, 3.2)        # ... superseded by one at 3.5
    sim.run(until=20.0)
    assert resumes == [3.5]


def test_doorbell_run_to_idle_terminates():
    sim = Simulator()
    queue = Store(sim)
    bell = Doorbell(sim, 0.5, lambda: sim.now if queue.items else None)
    takes = []

    def poller():
        while True:
            item = queue.try_get_nowait()
            if item is None:
                yield bell.park()
                continue
            takes.append((sim.now, item))

    spawn(sim, poller())
    sim.post_at(2.2, lambda: (queue.put_nowait("x"), bell.ring()))
    assert sim.run() == 2.5
    assert takes == [(2.5, "x")]
    assert sim.pending() == 0
