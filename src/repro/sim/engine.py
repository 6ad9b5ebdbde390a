"""Discrete-event simulation engine.

The engine maintains virtual time in microseconds and a binary heap of
pending events.  Everything in the reproduction — NIC cores, DMA engines,
links, host threads — is either a scheduled callback or a generator-based
:class:`~repro.sim.process.Process` driven by this engine.

The kernel is deliberately small: a time source, an event queue, and a
run loop.  Determinism is guaranteed by breaking ties on (time, sequence
number), so two runs with the same seeds produce identical traces.

Every event is one ``(when, seq, fn, args)`` heap entry, scheduled
through :meth:`Simulator.post` or :meth:`Simulator.post_at`.  Events
cannot be cancelled: a callback that may turn stale (a superseded
doorbell wake) checks its own state when it fires.  So the heap holds
only live events and :meth:`Simulator.pending` is its length (see
``docs/PERFORMANCE.md``).

Hook contract
-------------

The passive planes hang off three attributes: ``tracer`` (read by
components), ``checker`` and ``pulse`` (called by the kernel).
``checker.after_step`` runs after each fired callback;
``pulse.after_step`` runs with the clock at each event's time, before
dispatching it — so a pulse sample taken when time crosses a boundary
reads the state before the crossing event.
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


class SimulationError(RuntimeError):
    """Raised for illegal interactions with the simulation kernel."""


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.post_at(5.0, fired.append, "a")
    >>> sim.post(1.0, fired.append, "b")
    >>> sim.run()
    5.0
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        #: Current virtual time in microseconds.  A plain attribute, read
        #: on every event; only :meth:`run` writes it (``repro lint`` rule
        #: ``clock-write`` flags any other assignment under ``src/repro``).
        self.now: float = 0.0
        self._heap: List[Tuple] = []
        self._seq: int = 0
        self._running = False
        #: tracing hook, set by repro.obs.TracePlane.  Components check
        #: it per event and do nothing while it is None, so an
        #: uninstrumented run costs one attribute read per check.
        self.tracer = None
        #: correctness hook, set by repro.check.CheckPlane.  The kernel
        #: calls ``checker.on_schedule(when, seq, fn)`` when an event is
        #: pushed and ``checker.after_step(when, seq, fn)`` after each
        #: fired callback — the determinism sanitizer's step digest and
        #: the invariant monitors both hang off this.  ``run()`` reads it
        #: (and ``pulse``) once per call; see the module's hook contract.
        self.checker = None
        #: periodic-sampling hook, set by repro.obs.pulse.PulsePlane.
        #: The run loop calls ``pulse.after_step(now)`` before
        #: dispatching each event; the plane samples lazily, before
        #: the event that crosses a period boundary.  Sampling is
        #: passive — it schedules nothing — so instrumented and
        #: uninstrumented runs fire the exact same event sequence (the
        #: sanitizer digests prove it).
        self.pulse = None

    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # post_at's push, inlined: this is the per-event path
        when = self.now + delay
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or None when empty."""
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
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= bound:
                when, seq, fn, args = pop(heap)
                self.now = when
                if pl is not None:
                    pl.after_step(when)
                fn(*args)
                if chk is not None:
                    chk.after_step(when, seq, fn)
            if until is not None and until > self.now:
                self.now = until
                if pl is not None:
                    pl.after_step(until)
        finally:
            self._running = False
        return self.now

    def pending(self) -> int:
        """Number of events still queued.  O(1)."""
        return len(self._heap)
