"""Discrete-event simulation kernel (virtual time in microseconds)."""

from .engine import MICROSECOND, MILLISECOND, SECOND, SimulationError, Simulator
from .process import Process, Signal, Timeout, spawn
from .resources import Doorbell, Resource, Store
from .distributions import Rng, ZipfGenerator, percentile, rng_draw_count
from .faults import FaultKind, FaultPlane, FaultSnapshot, FaultSpec, RecoveryPolicy
from .stats import Ewma, LatencyRecorder, LatencyTracker, UtilizationTracker

__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "SimulationError",
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "spawn",
    "Doorbell",
    "Resource",
    "Store",
    "Rng",
    "FaultKind",
    "FaultPlane",
    "FaultSnapshot",
    "FaultSpec",
    "RecoveryPolicy",
    "ZipfGenerator",
    "percentile",
    "rng_draw_count",
    "Ewma",
    "LatencyRecorder",
    "LatencyTracker",
    "UtilizationTracker",
]
