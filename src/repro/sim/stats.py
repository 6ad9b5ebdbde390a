"""Measurement utilities: EWMA trackers, latency recorders, utilization.

The iPipe runtime's bookkeeping (§3.2.3) tracks per-actor request latency
``µ``, its standard deviation ``σ``, and uses ``µ + 3σ`` as the tail
estimate, all maintained as exponentially weighted moving averages.  The
classes here implement exactly that, plus the plain collectors the
experiment harnesses use to report means and true percentiles.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .distributions import percentile


class Ewma:
    """Exponentially weighted moving average of a scalar."""

    def __init__(self, alpha: float = 0.1):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value

    def get(self, default: float = 0.0) -> float:
        return self.value if self.value is not None else default


class LatencyTracker:
    """EWMA mean/std latency tracker with the paper's µ+3σ tail estimate."""

    def __init__(self, alpha: float = 0.1):
        self.mean = Ewma(alpha)
        self.var = Ewma(alpha)
        self.count = 0

    def record(self, sample: float) -> None:
        self.count += 1
        prev_mean = self.mean.get(sample)
        self.mean.update(sample)
        self.var.update((sample - prev_mean) ** 2)

    @property
    def mu(self) -> float:
        return self.mean.get()

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.var.get(), 0.0))

    @property
    def tail(self) -> float:
        """The paper's approximate P99: µ + 3σ."""
        return self.mu + 3.0 * self.sigma

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
