"""CheckPlane: determinism sanitizer, invariant monitors, lint gate.

Three tools that keep the reproduction honest (see ``docs/CHECKING.md``):

* :func:`replay_check` / :class:`SanitizerSession` — replay a run and
  binary-search to the first divergent event;
* :class:`CheckPlane` + the monitors in :mod:`repro.check.monitors` —
  zero-virtual-time runtime invariant checking on the engine tick;
* :func:`lint_tree` — the ``repro lint`` static pass over ``src/repro``.
"""

from .equiv import (
    canonical_digest,
    canonical_events,
    session_digest,
)
from .lint import RULES, LintFinding, lint_file, lint_source, lint_tree
from .monitors import (
    ChannelMonitor,
    DmoMonitor,
    InvariantViolation,
    PaxosMonitor,
    PulseMonitor,
    RequestMonitor,
    RingMonitor,
    SchedulerMonitor,
    SteeringMonitor,
    TenantMonitor,
    Violation,
)
from .plane import CheckPlane
from .sanitizer import (
    CheckResult,
    Hazard,
    SanitizerSession,
    StepRecord,
    StepRecorder,
    TieWarning,
    callback_id,
    first_divergence,
    replay_check,
)

__all__ = [
    "CheckPlane",
    "CheckResult",
    "ChannelMonitor",
    "canonical_digest",
    "canonical_events",
    "session_digest",
    "DmoMonitor",
    "Hazard",
    "InvariantViolation",
    "LintFinding",
    "PaxosMonitor",
    "PulseMonitor",
    "RequestMonitor",
    "RingMonitor",
    "RULES",
    "SanitizerSession",
    "SchedulerMonitor",
    "SteeringMonitor",
    "StepRecord",
    "StepRecorder",
    "TenantMonitor",
    "TieWarning",
    "Violation",
    "callback_id",
    "first_divergence",
    "lint_file",
    "lint_source",
    "lint_tree",
    "replay_check",
]
