"""Discrete-event simulation engine.

The engine maintains virtual time in microseconds and a binary heap of
pending events.  Everything in the reproduction — NIC cores, DMA engines,
links, host threads — is either a scheduled callback or a generator-based
:class:`~repro.sim.process.Process` driven by this engine.

The kernel is deliberately small: a time source, an event queue, and a
run loop.  Determinism is guaranteed by breaking ties on (time, sequence
number), so two runs with the same seeds produce identical traces.

Fast path
---------

Four optimisations keep the kernel out of the profile at sweep scale
(see ``docs/PERFORMANCE.md``):

* :meth:`Simulator.post` / :meth:`Simulator.post_at` schedule a bare
  ``(when, seq, fn, args)`` heap entry with no :class:`EventHandle` at
  all — the right call for the vast majority of events (process resumes,
  timeouts, packet deliveries) that are never cancelled and whose handle
  the caller would discard;
* ``pending()`` reads a live-event counter maintained on push/fire/cancel
  instead of scanning the heap (the seed kernel was O(n) per call);
* cancelled events stay in the queue as *tombstones* (lazy cancel) but
  the queue is compacted in place once more than half of it is dead,
  bounding memory in cancellation-heavy workloads (watchdogs, closed-loop
  timeouts);
* once more than :data:`_WHEEL_THRESHOLD` events are live, the binary
  heap is upgraded in place to a two-level **calendar wheel**
  (:class:`_EventWheel`): O(1) amortised insert into time buckets
  instead of an O(log n) sift, with the active bucket sorted lazily.
  The upgrade is one-way, automatic (``queue="auto"``), and provably
  order-preserving — pop order is exactly the global (when, seq) order,
  so digests and fingerprints are unchanged.  Sparse horizons never
  reach the threshold and stay on the heap (``queue="heap"`` pins the
  heap for benchmarking).

Raw ``post`` entries and handle entries share one queue and one sequence
counter, so interleaving the two APIs preserves the global (time, seq)
tie-break order exactly.

Hook contract
-------------

The passive planes hang off four attributes: ``tracer`` and ``metrics``
(read by components), ``checker`` and ``pulse`` (called by the kernel).
``checker.after_step`` runs after each fired callback;
``pulse.after_step`` runs with the clock at each live event's time,
before dispatching it — so a pulse sample taken when time crosses a
boundary reads the state before the crossing event.
Planes install before :meth:`Simulator.run`.  ``run()`` reads
``checker`` and ``pulse`` once per call, so a plane installed between
two bounded ``run(until=...)`` calls sees every event of the second
call on, while one installed from inside a callback takes effect only
at the next call.  Scheduling reads ``checker`` afresh on every push,
for ``on_schedule``.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Virtual time is expressed in microseconds throughout the code base.
MICROSECOND = 1.0
MILLISECOND = 1_000.0
SECOND = 1_000_000.0

#: Compaction triggers once the queue holds at least this many tombstones
#: *and* they outnumber the live entries (dead fraction > 50%).
_COMPACT_MIN_DEAD = 64

#: In ``queue="auto"`` mode the heap upgrades to the calendar wheel once
#: this many events are live.  Below the threshold the heap's O(log n)
#: sift is cheap and the wheel's bucket bookkeeping is pure overhead;
#: above it (dense fleet/fabric scenarios) bucketed insert wins.
_WHEEL_THRESHOLD = 4096

#: Bucket sizing target at upgrade time: width is chosen so a bucket
#: holds roughly this many entries of the converted snapshot.
_WHEEL_PER_BUCKET = 16.0


class SimulationError(RuntimeError):
    """Raised for illegal interactions with the simulation kernel."""


class _EventWheel:
    """Two-level calendar queue for dense event horizons.

    Entries are the engine's raw heap tuples — ``(when, seq, fn, args)``
    or ``(when, seq, handle)`` — filed into dict buckets keyed by
    ``int(when / width)``.  Bucket keys live in a small heap; the active
    (earliest) bucket is sorted lazily on activation and consumed
    through an index pointer, and entries that land *in* the active
    bucket go to a side heap consulted on every peek/pop.

    Because ``int(when / width)`` is monotonic in ``when`` and ``seq``
    is unique (tuple comparison never reaches the third element), the
    pop order is exactly the global ``(when, seq)`` heap order — the
    wheel is a drop-in replacement, not an approximation.

    A bounded ``run(until=...)`` may return with the active bucket
    half-consumed; a later ``post_at`` can then file an entry into an
    *earlier* bucket than the active one.  ``_head`` detects that
    (``keys[0] < cur_key``), re-files the active remainder, and
    re-activates from the key heap, so cross-run pushes stay ordered.
    """

    __slots__ = ("width", "buckets", "keys", "cur", "idx", "extra",
                 "cur_key")

    def __init__(self, entries: List[Tuple]):
        times = sorted(entry[0] for entry in entries)
        if times:
            # Robust span: ignore the farthest 10% so a handful of
            # far-future watchdogs cannot inflate the bucket width
            # until every near-term event collapses into one bucket.
            span = times[(9 * len(times)) // 10] - times[0]
        else:
            span = 0.0
        width = span / max(len(entries) / _WHEEL_PER_BUCKET, 1.0)
        self.width = width if width > 0.0 else 1.0
        self.buckets: Dict[int, List[Tuple]] = {}
        self.keys: List[int] = []
        self.cur: List[Optional[Tuple]] = []
        self.idx = 0
        self.extra: List[Tuple] = []
        self.cur_key = -1   # sentinel: times >= 0 so real keys are >= 0
        for entry in entries:
            self.push(entry)

    def push(self, entry: Tuple) -> None:
        key = int(entry[0] / self.width)
        if key == self.cur_key:
            heapq.heappush(self.extra, entry)
            return
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [entry]
            heapq.heappush(self.keys, key)
        else:
            bucket.append(entry)

    def _activate(self) -> None:
        key = heapq.heappop(self.keys)
        bucket = self.buckets.pop(key)
        bucket.sort()
        self.cur = bucket
        self.idx = 0
        self.cur_key = key

    def _demote(self) -> None:
        """Re-file the active bucket's remainder; an earlier bucket
        appeared (possible only via ``post_at`` between bounded runs)."""
        rest = [entry for entry in self.cur[self.idx:]]
        rest.extend(self.extra)
        self.extra = []
        if rest:
            bucket = self.buckets.get(self.cur_key)
            if bucket is None:
                self.buckets[self.cur_key] = rest
                heapq.heappush(self.keys, self.cur_key)
            else:
                bucket.extend(rest)
        self.cur = []
        self.idx = 0
        self.cur_key = -1

    def _head(self) -> Optional[Tuple]:
        """Earliest entry without removing it (tombstones included)."""
        while True:
            if self.keys and self.keys[0] < self.cur_key:
                self._demote()
                continue
            if self.idx < len(self.cur):
                cur_head = self.cur[self.idx]
                if self.extra and self.extra[0] < cur_head:
                    return self.extra[0]
                return cur_head
            if self.extra:
                return self.extra[0]
            if not self.keys:
                return None
            self._activate()

    def peek(self) -> Optional[float]:
        """Earliest queued timestamp (tombstones included), or None."""
        entry = self._head()
        return entry[0] if entry is not None else None

    def pop(self) -> Tuple:
        """Remove and return the earliest entry (callers peek first)."""
        entry = self._head()
        if entry is None:
            raise IndexError("pop from an empty event wheel")
        if self.idx < len(self.cur) and self.cur[self.idx] is entry:
            self.cur[self.idx] = None
            self.idx += 1
            return entry
        return heapq.heappop(self.extra)

    def compact(self) -> None:
        """Drop cancelled tombstones from every bucket, in place."""
        def live(entries: List[Tuple]) -> List[Tuple]:
            return [entry for entry in entries
                    if len(entry) == 4 or not entry[2].cancelled]

        self.cur = live(self.cur[self.idx:])   # suffix stays sorted
        self.idx = 0
        self.extra = live(self.extra)
        heapq.heapify(self.extra)
        buckets: Dict[int, List[Tuple]] = {}
        for key, entries in self.buckets.items():
            kept = live(entries)
            if kept:
                buckets[key] = kept
        self.buckets = buckets
        self.keys = list(buckets)
        heapq.heapify(self.keys)


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.call_at(5.0, fired.append, "a")
    >>> _ = sim.call_in(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']

    ``queue`` selects the event-queue strategy: ``"auto"`` (default)
    starts on the binary heap and upgrades one-way to the calendar
    wheel once :data:`_WHEEL_THRESHOLD` events are live; ``"heap"``
    pins the heap (used by benchmarks to price the wheel).
    """

    def __init__(self, queue: str = "auto") -> None:
        if queue not in ("auto", "heap"):
            raise SimulationError(f"unknown queue mode: {queue!r}")
        self._now: float = 0.0
        self._heap: List[Tuple] = []
        self._wheel: Optional[_EventWheel] = None
        self._auto = queue == "auto"
        self._seq: int = 0
        self._running = False
        self._live: int = 0      # scheduled, not yet fired or cancelled
        self._dead: int = 0      # cancelled tombstones still in the queue
        #: observability hooks, set by repro.obs.TracePlane.  Components
        #: check these per event and do nothing while they are None, so
        #: an uninstrumented run costs one attribute read per check.
        self.tracer = None
        self.metrics = None
        #: correctness hook, set by repro.check.CheckPlane.  The kernel
        #: calls ``checker.on_schedule(when, seq, fn)`` when an event is
        #: pushed and ``checker.after_step(when, seq, fn)`` after each
        #: fired callback — the determinism sanitizer's step digest and
        #: the invariant monitors both hang off this.  ``run()`` reads it
        #: (and ``pulse``) once per call; see the module's hook contract.
        self.checker = None
        #: periodic-sampling hook, set by repro.obs.pulse.PulsePlane.
        #: The run loop calls ``pulse.after_step(now)`` before
        #: dispatching each live event; the plane samples lazily, before
        #: the event that crosses a period boundary.  Sampling is
        #: passive — it schedules nothing — so instrumented and
        #: uninstrumented runs fire the exact same event sequence (the
        #: sanitizer digests prove it).
        self.pulse = None

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # -- fast path: handle-free scheduling -----------------------------
    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``when`` with no cancellation handle.

        Roughly twice as fast as :meth:`call_at`; use it whenever the
        event is never cancelled and the handle would be discarded.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        self._seq += 1
        self._live += 1
        wheel = self._wheel
        if wheel is not None:
            wheel.push((when, self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (when, self._seq, fn, args))
            if self._live > _WHEEL_THRESHOLD and self._auto:
                self._upgrade()
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` µs; no handle (fast path)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.post_at(self._now + delay, fn, *args)

    # -- cancellable scheduling ----------------------------------------
    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        handle = EventHandle(when, fn, args, self)
        self._seq += 1
        self._live += 1
        wheel = self._wheel
        if wheel is not None:
            wheel.push((when, self._seq, handle))
        else:
            heapq.heappush(self._heap, (when, self._seq, handle))
            if self._live > _WHEEL_THRESHOLD and self._auto:
                self._upgrade()
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)
        return handle

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def _upgrade(self) -> None:
        """One-way switch from the binary heap to the calendar wheel.

        Entries move verbatim; the wheel pops in (when, seq) order, so
        the switch is invisible to the event schedule (same callbacks,
        same timestamps, same digests).  The heap list is emptied *in
        place* and stays empty: the run loop finds its local alias dry
        and continues on the wheel.
        """
        entries = self._heap[:]
        del self._heap[:]
        self._wheel = _EventWheel(entries)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued entry, or None when empty.

        Cancelled tombstones are counted — the result is a conservative
        lower bound on the next *live* event, which is exactly what the
        shard executor's lookahead computation needs.
        """
        wheel = self._wheel
        if wheel is not None:
            return wheel.peek()
        heap = self._heap
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, or until virtual time would pass
        ``until`` (in which case time is advanced exactly to ``until``).
        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        chk = self.checker
        pl = self.pulse
        bound = math.inf if until is None else until
        # _upgrade() and _compact() mutate self._heap in place, so this
        # alias stays valid when a callback triggers either.
        heap = self._heap
        pop = heapq.heappop
        try:
            while True:
                if heap:
                    if heap[0][0] > bound:
                        break
                    item = pop(heap)
                else:
                    # after an upgrade every push goes to the wheel, so
                    # the heap stays dry and this branch serves the run
                    wheel = self._wheel
                    if wheel is None:
                        break
                    head = wheel.peek()
                    if head is None or head > bound:
                        break
                    item = wheel.pop()
                when = item[0]
                if len(item) == 4:          # raw post(): (when, seq, fn, args)
                    self._now = when
                    self._live -= 1
                    if pl is not None:
                        pl.after_step(when)
                    fn = item[2]
                    fn(*item[3])
                else:
                    handle = item[2]
                    if handle.cancelled:
                        self._dead -= 1
                        handle._fn = None
                        handle._args = ()
                        continue
                    self._now = when
                    self._live -= 1
                    if pl is not None:
                        pl.after_step(when)
                    handle.fired = True
                    fn = handle._fn
                    fn(*handle._args)
                if chk is not None:
                    chk.after_step(when, item[1], fn)
            if until is not None and until > self._now:
                self._now = until
                if pl is not None:
                    pl.after_step(until)
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # -- lazy-cancel bookkeeping ---------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel`; maybe compact the queue."""
        self._live -= 1
        self._dead += 1
        if self._dead < _COMPACT_MIN_DEAD:
            return
        total = (self._live + self._dead if self._wheel is not None
                 else len(self._heap))
        if self._dead * 2 > total:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify/re-file, in place."""
        wheel = self._wheel
        if wheel is not None:
            wheel.compact()
        else:
            self._heap[:] = [entry for entry in self._heap
                             if len(entry) == 4 or not entry[2].cancelled]
            heapq.heapify(self._heap)
        self._dead = 0


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("when", "_fn", "_args", "cancelled", "fired", "_sim")

    def __init__(self, when: float, fn: Callable[..., Any],
                 args: Tuple[Any, ...], sim: Simulator):
        self.when = when
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._sim._note_cancel()
