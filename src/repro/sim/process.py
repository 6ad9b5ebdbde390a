"""Generator-based processes on top of the event engine.

A process is a Python generator that yields *commands*:

* ``Timeout(dt)`` — sleep for ``dt`` microseconds of virtual time
  (:meth:`Process._resume` posts the wake itself).
* ``Waitable``   — any object with ``subscribe(process)`` semantics
  (:class:`Signal`, store get/put operations and doorbells from
  :mod:`repro.sim.resources`).

The yielded waitable resumes the process with ``.send(value)`` once it
completes, mirroring how firmware threads block on hardware queues.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .engine import SimulationError, Simulator


class Command:
    """Base class for things a process may yield."""

    def subscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Timeout(Command):
    """Sleep for a fixed amount of virtual time."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value


class Signal(Command):
    """A one-shot level-triggered event.

    Processes yielding an un-triggered signal block until ``trigger`` is
    called; yielding an already-triggered signal resumes on the next event
    cycle (same virtual time).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("signal already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.sim.post(0.0, resume, value)

    def subscribe(self, process: "Process") -> None:
        if self.triggered:
            process.sim.post(0.0, process._resume, self.value)
        else:
            self._waiters.append(process._resume)


class Process:
    """Drives a generator coroutine against the simulator clock."""

    _ids = 0

    def __init__(self, sim: Simulator, gen: Generator[Command, Any, Any],
                 name: Optional[str] = None):
        Process._ids += 1
        self.sim = sim
        self.gen = gen
        self.name = name or f"process-{Process._ids}"
        sim.post(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        try:
            command = self.gen.send(value)
        except StopIteration:
            return
        # a sleep, the most common command, is posted here directly
        if type(command) is Timeout:
            self.sim.post(command.delay, self._resume, command.value)
        elif isinstance(command, Command):
            command.subscribe(self)
        else:
            raise SimulationError(
                f"{self.name} yielded {command!r}, expected a Command"
            )


def spawn(sim: Simulator, gen: Generator[Command, Any, Any],
          name: Optional[str] = None) -> Process:
    """Convenience wrapper to start a process."""
    return Process(sim, gen, name=name)
