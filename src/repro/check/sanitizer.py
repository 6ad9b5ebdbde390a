"""Determinism sanitizer: replay a run and localize the first divergence.

The repo's core claim is that calibrated DES runs are bit-identical
across replays (docs/PERFORMANCE.md).  Fingerprint tests prove the
*results* match; this module finds the *source* when they don't.

Mechanism
---------

:class:`SanitizerSession` is a context manager that instruments every
:class:`~repro.sim.Simulator` constructed inside it (experiments build
their simulators internally, so the session patches the constructor
rather than requiring one to be passed in).  Each fired event appends to
a rolling CRC-32 digest over::

    (sim index, event time, sequence number, callback id, RNG position)

where the callback id is the callback's ``module:qualname`` (stable
across replays, unlike object ids) and the RNG position is the count of
:class:`~repro.sim.Rng` draws since the session started.  Because the
digest is rolling, the per-step digest list has the prefix property:
two replays agree up to exactly the first divergent event, so
:func:`first_divergence` finds it by binary search and the report names
the offending callback, its scheduling parent, and any hazards recorded
during the run.

Two hazard guards run alongside the digest:

* **wall-clock / module-random guards** — ``time.time`` (and friends)
  and the module-level ``random`` functions are wrapped for the duration
  of the session; a call made while any instrumented simulator is
  running is recorded as a :class:`Hazard` and attributed to the event
  executing at that step.  Seeded ``random.Random`` instances (what
  :class:`~repro.sim.Rng` wraps) are untouched.
* **tie guard** — when one event schedules two or more events for the
  same timestamp with the same callback on the same receiver, their
  relative order is fixed only by insertion order (the (time, seq)
  tie-break).  That is deterministic *within* a process but fragile
  under refactoring — typically it means iteration over an unordered
  container chose the order — so the pair is recorded as a
  :class:`TieWarning` (advisory, not a failure; the static
  ``repro lint`` rule bans the unordered sources themselves).

:func:`replay_check` packages the whole protocol: run a callable N
times under fresh sessions and compare the digests.
"""

from __future__ import annotations

import functools
import random as _random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple
from zlib import crc32

from ..sim.distributions import rng_draw_count
from ..sim.engine import Simulator
from .monitors import Violation
from .plane import DEFAULT_EVERY, CheckPlane


def callback_id(fn: Any) -> str:
    """Stable identity for an event callback: ``module:qualname``.

    Bound methods, plain functions, closures and ``functools.partial``
    wrappers all resolve to names that survive a replay; object ids and
    memory addresses never enter the digest.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    qual = getattr(fn, "__qualname__", None)
    if qual is None:                       # callable object
        qual = type(fn).__qualname__
        mod = type(fn).__module__ or ""
    else:
        mod = getattr(fn, "__module__", "") or ""
    return f"{mod}:{qual}"


def _receiver_key(fn: Any) -> int:
    """Within-run identity of the callback's receiver (for tie grouping
    only — never part of the digest)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    target = getattr(fn, "__self__", None)
    return id(target) if target is not None else id(fn)


class StepRecord(NamedTuple):
    """What the digest saw for one fired event."""

    sim: int
    when: float
    seq: int
    callback: str
    rng_pos: int
    #: callback id of the event that scheduled this one ("<setup>" for
    #: events posted before the run loop started)
    parent: str


@dataclass
class Hazard:
    """A nondeterminism hazard observed inside simulation context."""

    kind: str                  # "wall-clock" | "module-random"
    detail: str                # e.g. "time.time", "random.random"
    step: int                  # event index during which the call happened
    sim_time: float
    callback: Optional[str] = None   # filled in when the step completes

    def __str__(self) -> str:
        who = self.callback or "<unattributed>"
        return (f"{self.kind} hazard: {self.detail}() called at "
                f"t={self.sim_time:.2f}µs (step {self.step}) inside {who}")


@dataclass
class TieWarning:
    """Same-timestamp siblings whose order is fixed only by insertion."""

    when: float
    callback: str
    scheduled_by: str
    step: int

    def __str__(self) -> str:
        return (f"insertion-order tie: {self.scheduled_by} scheduled "
                f">=2 events for t={self.when:.2f}µs on the same receiver "
                f"({self.callback}); their order rests on the seq "
                f"tie-break alone")


class StepRecorder:
    """Accumulates the rolling digest (and optionally full records) for
    every simulator in one sanitizer session."""

    def __init__(self, keep_records: bool = True):
        self.digest = 0
        self.hashes: List[int] = []
        self.keep_records = keep_records
        self.records: List[StepRecord] = []
        self.hazards: List[Hazard] = []
        self.ties: List[TieWarning] = []
        self._rng_base = rng_draw_count()
        self._parents: Dict[Tuple[int, int], str] = {}
        #: schedules made during the currently-executing event, awaiting
        #: parent attribution: (sim, when, seq, callback id, receiver)
        self._pending: List[Tuple[int, float, int, str, int]] = []

    @property
    def steps(self) -> int:
        return len(self.hashes)

    def on_schedule(self, sim_index: int, running: bool, when: float,
                    seq: int, fn: Any) -> None:
        if not running:
            # posted from setup code, before any event executes
            if self.keep_records:
                self._parents[(sim_index, seq)] = "<setup>"
            return
        self._pending.append(
            (sim_index, when, seq, callback_id(fn), _receiver_key(fn)))

    def after_step(self, sim_index: int, when: float, seq: int,
                   fn: Any) -> None:
        cb = callback_id(fn)
        pos = rng_draw_count() - self._rng_base
        step = len(self.hashes)
        self.digest = crc32(
            f"{sim_index}|{when!r}|{seq}|{cb}|{pos}".encode(),
            self.digest) & 0xFFFFFFFF
        self.hashes.append(self.digest)
        if self.keep_records:
            parent = self._parents.pop((sim_index, seq), "<unknown>")
            self.records.append(
                StepRecord(sim_index, when, seq, cb, pos, parent))
        if self._pending:
            # attribute this step's schedules, and flag insertion-order
            # ties among them (same time + callback + receiver)
            seen: Dict[Tuple[int, float, str, int], int] = {}
            for (s_sim, s_when, s_seq, s_cb, s_recv) in self._pending:
                if self.keep_records:
                    self._parents[(s_sim, s_seq)] = cb
                key = (s_sim, s_when, s_cb, s_recv)
                count = seen.get(key, 0) + 1
                seen[key] = count
                if count == 2:
                    self.ties.append(TieWarning(
                        when=s_when, callback=s_cb, scheduled_by=cb,
                        step=step))
            self._pending.clear()
        for hazard in self.hazards:
            if hazard.callback is None and hazard.step == step:
                hazard.callback = cb

    def note_hazard(self, kind: str, detail: str, sim_time: float) -> None:
        self.hazards.append(Hazard(kind=kind, detail=detail,
                                   step=len(self.hashes),
                                   sim_time=sim_time))


#: Wall-clock entry points guarded during a session.  ``perf_counter``
#: is deliberately absent: it is the sanctioned benchmarking clock
#: (allowlisted in exec/) and never a virtual-time input.
_WALL_CLOCK_FNS = ("time", "time_ns", "monotonic", "monotonic_ns")

#: Module-level random functions guarded during a session (all drive the
#: hidden, globally-shared generator; seeded Random instances do not).
_MODULE_RANDOM_FNS = (
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "expovariate", "gauss", "normalvariate",
    "lognormvariate", "betavariate", "triangular", "getrandbits",
)


class SanitizerSession:
    """Instrument every Simulator constructed inside a ``with`` block.

    Not reentrant.  Restores ``Simulator.__init__`` and the guarded
    ``time``/``random`` module functions on exit, even on error.
    """

    def __init__(self, keep_records: bool = True,
                 guard_hazards: bool = True, monitors: bool = False,
                 strict: bool = False, every: int = 256):
        self.recorder = StepRecorder(keep_records=keep_records)
        self.guard_hazards = guard_hazards
        self.monitors = monitors
        self.strict = strict
        self.every = every
        self.planes: List[CheckPlane] = []
        self.sims: List[Simulator] = []
        self._saved_init: Optional[Callable] = None
        self._saved_guards: List[Tuple[Any, str, Any]] = []
        self._active = False

    # -- context management ----------------------------------------------
    def __enter__(self) -> "SanitizerSession":
        if self._active:
            raise RuntimeError("SanitizerSession is not reentrant")
        self._active = True
        session = self
        saved_init = Simulator.__init__
        self._saved_init = saved_init

        @functools.wraps(saved_init)
        def instrumented_init(sim, *args, **kwargs):
            saved_init(sim, *args, **kwargs)
            index = len(session.sims)
            session.sims.append(sim)
            session.planes.append(CheckPlane(
                sim, every=session.every, strict=session.strict,
                recorder=session.recorder, sim_index=index,
                monitors=session.monitors))

        Simulator.__init__ = instrumented_init
        if self.guard_hazards:
            self._install_guards()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._saved_init is not None:
            Simulator.__init__ = self._saved_init
            self._saved_init = None
        self._remove_guards()
        for plane in self.planes:
            plane.uninstall()
        self._active = False
        return False

    # -- hazard guards ----------------------------------------------------
    def _in_sim_context(self) -> bool:
        return any(sim._running for sim in self.sims)

    def _sim_now(self) -> float:
        return max((sim.now for sim in self.sims if sim._running),
                   default=0.0)

    def _guard(self, module, name: str, kind: str) -> None:
        real = getattr(module, name, None)
        if real is None:
            return
        session = self
        detail = f"{module.__name__}.{name}"

        @functools.wraps(real)
        def guarded(*args, **kwargs):
            if session._in_sim_context():
                session.recorder.note_hazard(kind, detail,
                                             session._sim_now())
            return real(*args, **kwargs)

        self._saved_guards.append((module, name, real))
        setattr(module, name, guarded)

    def _install_guards(self) -> None:
        for name in _WALL_CLOCK_FNS:
            self._guard(_time, name, "wall-clock")
        for name in _MODULE_RANDOM_FNS:
            self._guard(_random, name, "module-random")

    def _remove_guards(self) -> None:
        while self._saved_guards:
            module, name, real = self._saved_guards.pop()
            setattr(module, name, real)


def first_divergence(a: List[int], b: List[int]) -> int:
    """Index of the first differing rolling digest (binary search).

    Rolling digests have the prefix property — once two replays diverge
    they never re-agree — so equality at index ``m`` means the first
    divergence lies strictly after ``m``.  Returns ``min(len(a),
    len(b))`` when one list is a prefix of the other.
    """
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass
class CheckResult:
    """Outcome of an N-replay determinism check."""

    replays: int
    steps: List[int]
    digests: List[int]
    divergent_step: Optional[int] = None
    divergent_replay: Optional[int] = None
    expected: Optional[StepRecord] = None
    actual: Optional[StepRecord] = None
    hazards: List[Hazard] = field(default_factory=list)
    ties: List[TieWarning] = field(default_factory=list)
    #: invariant-monitor violations (only populated when ``replay_check``
    #: ran with ``monitors=True``)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every replay produced an identical event stream and
        no nondeterminism hazard or invariant violation was observed."""
        return (self.divergent_step is None and not self.hazards
                and not self.violations)

    @property
    def deterministic(self) -> bool:
        return self.divergent_step is None

    def describe(self) -> str:
        lines = [
            f"replays: {self.replays}  "
            f"steps: {'/'.join(str(s) for s in self.steps)}  "
            f"digests: {'/'.join(f'{d:08x}' for d in self.digests)}"
        ]
        if self.divergent_step is None:
            lines.append("determinism: OK (all replays bit-identical)")
        else:
            lines.append(
                f"determinism: FAILED — replay {self.divergent_replay} "
                f"diverged from replay 0 at event {self.divergent_step}")
            if self.expected is not None:
                lines.append(
                    f"  replay 0 event {self.divergent_step}: "
                    f"t={self.expected.when:.3f}µs seq={self.expected.seq} "
                    f"cb={self.expected.callback} "
                    f"rng_pos={self.expected.rng_pos} "
                    f"(scheduled by {self.expected.parent})")
            if self.actual is not None:
                lines.append(
                    f"  replay {self.divergent_replay} event "
                    f"{self.divergent_step}: "
                    f"t={self.actual.when:.3f}µs seq={self.actual.seq} "
                    f"cb={self.actual.callback} "
                    f"rng_pos={self.actual.rng_pos} "
                    f"(scheduled by {self.actual.parent})")
            if self.expected is not None and self.actual is None:
                lines.append(
                    f"  replay {self.divergent_replay} ended before "
                    f"event {self.divergent_step}")
        if self.violations:
            lines.append(f"invariant violations: {len(self.violations)}")
            for violation in self.violations[:10]:
                lines.append(f"  [{violation.monitor}] "
                             f"{violation.component or '-'}: "
                             f"{violation.message} "
                             f"(t={violation.time_us:.2f}µs)")
            if len(self.violations) > 10:
                lines.append(f"  ... {len(self.violations) - 10} more")
        if self.hazards:
            lines.append(f"hazards: {len(self.hazards)}")
            for hazard in self.hazards[:10]:
                lines.append(f"  {hazard}")
            if len(self.hazards) > 10:
                lines.append(f"  ... {len(self.hazards) - 10} more")
        if self.ties:
            lines.append(
                f"tie warnings (advisory): {len(self.ties)} "
                f"same-timestamp sibling group(s)")
            for tie in self.ties[:5]:
                lines.append(f"  {tie}")
            if len(self.ties) > 5:
                lines.append(f"  ... {len(self.ties) - 5} more")
        return "\n".join(lines)


def replay_check(run_fn: Callable[[], Any], replays: int = 2,
                 keep_records: bool = True,
                 guard_hazards: bool = True,
                 monitors: bool = False,
                 every: int = DEFAULT_EVERY) -> CheckResult:
    """Run ``run_fn`` N times under fresh sanitizer sessions and compare.

    ``run_fn`` must be self-contained (build its own simulators and
    seeds); anything it constructs inside the call is instrumented.
    With ``monitors=True`` the runtime invariant monitors also sweep
    every ``every`` events (non-strict: violations are collected on the
    result instead of raised).  Returns a :class:`CheckResult`;
    ``result.ok`` is False when any replay's event stream diverged from
    the first, a hazard fired, or a monitor reported a violation.
    """
    if replays < 2:
        raise ValueError("need at least 2 replays to compare")
    recorders: List[StepRecorder] = []
    violations: List[Violation] = []
    for _ in range(replays):
        with SanitizerSession(keep_records=keep_records,
                              guard_hazards=guard_hazards,
                              monitors=monitors, strict=False,
                              every=every) as session:
            run_fn()
        recorders.append(session.recorder)
        for plane in session.planes:
            violations.extend(plane.violations)
    base = recorders[0]
    result = CheckResult(
        replays=replays,
        steps=[rec.steps for rec in recorders],
        digests=[rec.digest for rec in recorders],
        hazards=[hz for rec in recorders for hz in rec.hazards],
        ties=list(base.ties),
        violations=violations,
    )
    for index, rec in enumerate(recorders[1:], start=1):
        if rec.digest == base.digest and rec.steps == base.steps:
            continue
        step = first_divergence(base.hashes, rec.hashes)
        result.divergent_step = step
        result.divergent_replay = index
        if keep_records:
            if step < len(base.records):
                result.expected = base.records[step]
            if step < len(rec.records):
                result.actual = rec.records[step]
        break
    return result
