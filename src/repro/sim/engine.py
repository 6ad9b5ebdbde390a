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

Three optimisations keep the kernel out of the profile at sweep scale
(see ``docs/PERFORMANCE.md``):

* :meth:`Simulator.post` / :meth:`Simulator.post_at` schedule a bare
  ``(when, seq, fn, args)`` heap entry with no :class:`EventHandle` at
  all — the right call for the vast majority of events (process resumes,
  timeouts, packet deliveries) that are never cancelled and whose handle
  the caller would discard;
* ``pending()`` reads a live-event counter maintained on push/fire/cancel
  instead of scanning the heap (the seed kernel was O(n) per call);
* cancelled events stay in the heap as *tombstones* (lazy cancel) but
  the heap is compacted in place once more than half of it is dead,
  bounding memory in cancellation-heavy workloads (watchdogs, closed-loop
  timeouts).

Raw ``post`` entries and handle entries share one heap and one sequence
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
from typing import Any, Callable, List, Optional, Tuple

#: Virtual time is expressed in microseconds throughout the code base.
MICROSECOND = 1.0
MILLISECOND = 1_000.0
SECOND = 1_000_000.0

#: Compaction triggers once the queue holds at least this many tombstones
#: *and* they outnumber the live entries (dead fraction > 50%).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for illegal interactions with the simulation kernel."""


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.call_at(5.0, fired.append, "a")
    >>> _ = sim.call_in(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple] = []
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
        heapq.heappush(self._heap, (when, self._seq, fn, args))
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
        heapq.heappush(self._heap, (when, self._seq, handle))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)
        return handle

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued entry, or None when empty.

        Cancelled tombstones are counted — the result is a conservative
        lower bound on the next *live* event, which is exactly what the
        shard executor's lookahead computation needs.
        """
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
        # _compact() mutates self._heap in place, so this alias stays
        # valid when a callback triggers it.
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= bound:
                item = pop(heap)
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
        if self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify, in place."""
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
