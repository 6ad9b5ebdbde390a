"""Blocking queues and capacity resources for simulation processes.

These mirror the hardware abstractions the paper relies on:

* :class:`Store` — an unbounded (or bounded) FIFO with blocking ``get``
  (host queues; the NIC cores' shared work queue is the traffic
  manager's own, which charges its dequeue sync on the handoff).
* :class:`Resource` — counted capacity with FIFO waiters (e.g. DMA engine
  channels, accelerator units).
* :class:`Doorbell` — parks an idle busy-poller and wakes it on its own
  poll lattice (host runtime threads polling the NIC→host ring).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from .engine import SimulationError, Simulator
from .process import Command, Process


class StoreGet(Command):
    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        self.store = store

    def subscribe(self, process: Process) -> None:
        self.store._register_get(process)


class StorePut(Command):
    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        self.store = store
        self.item = item

    def subscribe(self, process: Process) -> None:
        self.store._register_put(process, self.item)


class Store:
    """FIFO queue with blocking ``get`` and optionally-blocking ``put``.

    ``capacity=None`` means unbounded — puts never block (and may be done
    synchronously from callbacks via :meth:`put_nowait`).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self.items)

    # -- process-facing commands ---------------------------------------
    def get(self) -> StoreGet:
        return StoreGet(self)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    # -- callback-facing immediate operations --------------------------
    def put_nowait(self, item: Any) -> None:
        """Insert an item immediately; raises if the store is full."""
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise SimulationError("store full")
        self.items.append(item)
        self._dispatch()

    def try_get_nowait(self) -> Any:
        """Pop an item if one is present, else return ``None``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return item
        return None

    # -- internals ------------------------------------------------------
    def _register_get(self, process: Process) -> None:
        self._getters.append(process)
        self._dispatch()

    def _register_put(self, process: Process, item: Any) -> None:
        if self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            self.sim.post(0.0, process._resume, None)
            self._dispatch()
        else:
            self._putters.append((process, item))

    def _dispatch(self) -> None:
        while self.items and self._getters:
            process = self._getters.popleft()
            item = self.items.popleft()
            self.sim.post(0.0, process._resume, item)
            self._admit_putter()

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            process, item = self._putters.popleft()
            self.items.append(item)
            self.sim.post(0.0, process._resume, None)


class _Parking:
    """One parked process: its poll lattice and its scheduled wake."""

    __slots__ = ("bell", "process", "point", "wake_at", "token")

    def __init__(self, bell: "Doorbell", process: Process):
        self.bell = bell
        self.process = process
        #: the next lattice point, advanced by repeated float addition
        self.point = bell.sim.now + bell.period
        self.wake_at = math.inf
        #: id of the live wake event; older (superseded) ones are ignored
        self.token = 0

    def schedule(self, at: float) -> None:
        """Wake at the first lattice point at or after ``at`` (and not
        before now), unless an earlier wake is already scheduled."""
        period = self.bell.period
        now = self.bell.sim.now
        while self.point < now:
            self.point += period
        point = self.point
        while point < at:
            point += period
        if point < self.wake_at:
            self.wake_at = point
            self.token += 1
            self.bell.sim.post_at(point, self.wake, self.token)

    def wake(self, token: int) -> None:
        if token != self.token:
            return                  # superseded by an earlier wake
        del self.bell._parked[self.process]
        self.process._resume(None)


class Doorbell(Command):
    """Parks idle busy-pollers; wakes each on its own poll lattice.

    A poller that would loop ``yield Timeout(period)`` over an empty
    queue yields :meth:`park` instead.  The parked process remembers the
    lattice it would have polled on — park time + ``period``, advanced
    by repeated float ``+ period`` exactly as a ``Timeout`` chain
    advances — and sleeps until the producer side calls :meth:`ring`.
    A wake resumes it at the first point of its own lattice at or after
    ``ready_at()``, the earliest virtual time one of its polls could
    change state (``None``: no poll can, until the next ring).  So the
    process resumes when the busy-poller's poll would first have
    succeeded, without the events of the polls in between.

    A woken process whose poll finds nothing (a sibling took the item,
    the source stalled, a torn slot was discarded) just parks again;
    parking re-reads ``ready_at()``, so that one rule covers every case
    where the first wake was early.  A ring that moves a wake earlier
    supersedes the later one, which is ignored when it fires.

    Same-timestamp caveat: processes waking at one point resume in the
    order their wakes were posted (park order, for wakes one ring
    posts), and a wake is posted when the bell rings, not one period
    before the point as the busy-poller's ``Timeout`` was.  So against
    sibling pollers or other events at exactly that point, it can run
    in a different order than the busy-poller would have.
    """

    __slots__ = ("sim", "period", "ready_at", "_parked")

    def __init__(self, sim: Simulator, period: float,
                 ready_at: Callable[[], Optional[float]]):
        self.sim = sim
        self.period = period
        self.ready_at = ready_at
        #: parked process -> its parking, in park order
        self._parked: Dict[Process, _Parking] = {}

    def park(self) -> "Doorbell":
        """The command an idle poller yields in place of its poll sleep."""
        return self

    def ring(self) -> None:
        """Producer side: work arrived; reschedule every parked wake."""
        if not self._parked:
            return
        at = self.ready_at()
        if at is None:
            return
        for parking in self._parked.values():
            parking.schedule(at)

    def subscribe(self, process: Process) -> None:
        """Park ``process``, which yielded :meth:`park`."""
        parking = self._parked[process] = _Parking(self, process)
        at = self.ready_at()
        if at is not None:
            parking.schedule(at)


class ResourceAcquire(Command):
    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource

    def subscribe(self, process: Process) -> None:
        self.resource._register(process)


class Resource:
    """Counted capacity with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            yield Timeout(cost)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Process] = deque()

    def acquire(self) -> ResourceAcquire:
        return ResourceAcquire(self)

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without acquire")
        self.in_use -= 1
        if self._waiters:
            process = self._waiters.popleft()
            self.in_use += 1
            self.sim.post(0.0, process._resume, None)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def _register(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            self.sim.post(0.0, process._resume, None)
        else:
            self._waiters.append(process)
