"""The iPipe framework: actors, hybrid scheduler, DMO, migration, channels."""

from .actor import Actor, ActorTable, Location, Message, MigrationState
from .channel import Channel, ReliableChannel, Ring, RingFullError, message_checksum
from .dmo import Dmo, DmoError, DmoManager, ObjectTable
from .isolation import ActorKilledError, IsolationPolicy, QuotaEnforcer, Watchdog
from .migration import MigrationReport, Migrator
from .runtime import ExecutionContext, IPipeRuntime
from .telemetry import (
    ActorSnapshot,
    ChannelSnapshot,
    RecoverySnapshot,
    RuntimeSnapshot,
    SchedulerSnapshot,
    recovery_snapshot,
    snapshot,
)
from .scheduler import NicScheduler, SchedulerConfig, WorkItem
from . import api

__all__ = [
    "Actor",
    "ActorTable",
    "Location",
    "Message",
    "MigrationState",
    "Channel",
    "ReliableChannel",
    "Ring",
    "RingFullError",
    "message_checksum",
    "Dmo",
    "DmoError",
    "DmoManager",
    "ObjectTable",
    "ActorKilledError",
    "IsolationPolicy",
    "QuotaEnforcer",
    "Watchdog",
    "MigrationReport",
    "Migrator",
    "ExecutionContext",
    "IPipeRuntime",
    "ActorSnapshot",
    "ChannelSnapshot",
    "RecoverySnapshot",
    "RuntimeSnapshot",
    "SchedulerSnapshot",
    "recovery_snapshot",
    "snapshot",
    "NicScheduler",
    "SchedulerConfig",
    "WorkItem",
    "api",
]
