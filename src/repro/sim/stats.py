"""Measurement utilities: EWMA latency trackers, recorders, utilization.

The iPipe runtime's bookkeeping (§3.2.3) tracks per-actor request latency
``µ``, its standard deviation ``σ``, and uses ``µ + 3σ`` as the tail
estimate, all maintained as exponentially weighted moving averages.  The
classes here implement exactly that, plus the plain collectors the
experiment harnesses use to report means and true percentiles.
"""

from __future__ import annotations

import math
from typing import List

from .distributions import percentile


class LatencyTracker:
    """EWMA mean/variance latency tracker with the paper's µ+3σ tail
    estimate.

    Mean and variance are plain floats, updated in place: the scheduler
    reads :attr:`tail` on every FCFS iteration.
    """

    def __init__(self, alpha: float = 0.1):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.mu = 0.0
        self.var = 0.0
        self.count = 0

    def record(self, sample: float) -> None:
        if self.count:
            prev_mean = self.mu
            self.mu += self.alpha * (sample - prev_mean)
            self.var += self.alpha * ((sample - prev_mean) ** 2 - self.var)
        else:
            self.mu = sample
        self.count += 1

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.var, 0.0))

    @property
    def tail(self) -> float:
        """The paper's approximate P99: µ + 3σ."""
        return self.mu + 3.0 * math.sqrt(max(self.var, 0.0))

    @property
    def dispersion(self) -> float:
        """Dispersion measure used to pick downgrade victims (§3.2.2)."""
        return self.tail


class LatencyRecorder:
    """Exact sample collector for experiment reporting."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def record(self, sample: float) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def p(self, pct: float) -> float:
        if not self.samples:
            return 0.0
        return percentile(self.samples, pct)

    @property
    def p50(self) -> float:
        return self.p(50)

    @property
    def p99(self) -> float:
        return self.p(99)

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0


class UtilizationTracker:
    """Accumulates busy time for a core; reports utilization over a span."""

    def __init__(self) -> None:
        self.busy_time = 0.0

    def add_busy(self, duration: float) -> None:
        self.busy_time += duration

    def utilization(self, elapsed: float) -> float:
        return min(self.busy_time / elapsed, 1.0) if elapsed > 0 else 0.0
