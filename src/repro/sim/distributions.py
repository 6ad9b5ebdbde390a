"""Seeded random distributions used by workload generators.

All randomness in the reproduction flows through :class:`Rng` so every
experiment is reproducible from its seed.  The distributions mirror those
the paper's evaluation uses: Poisson arrivals (§5.4), zipf-distributed keys
with skew 0.99 over 1M keys (§5.1), and exponential / bimodal-2 service
times for the scheduler study (§5.4).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

#: Process-global count of draws taken through any :class:`Rng`.  This is
#: the "RNG-stream position" the determinism sanitizer folds into its
#: per-step digest (see ``repro.check.sanitizer``): two replays that drew
#: a different number of seeded variates by the same event index diverge
#: here even when the event timing happens to coincide.  The counter only
#: ever increases; consumers record deltas from a session baseline.
_draws = 0


def rng_draw_count() -> int:
    """Total :class:`Rng` draws taken in this process so far."""
    return _draws


class Rng:
    """A named, seeded random stream."""

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, salt: int) -> "Rng":
        """Derive an independent stream (e.g. one per client)."""
        # an int tuple hashes the same in every process (the hash salt
        # covers str/bytes only); a different mix would move every forked
        # seed, so the figures and the hostbench digests with it
        seed = hash((self.seed, salt))  # lint: allow[builtin-hash]
        return Rng(seed & 0x7FFFFFFF)

    # -- basic draws -----------------------------------------------------
    def uniform(self, lo: float, hi: float) -> float:
        global _draws
        _draws += 1
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        global _draws
        _draws += 1
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence) -> object:
        global _draws
        _draws += 1
        return seq[self._random.randrange(len(seq))]

    def picks(self, seq: Sequence, k: int) -> List:
        """``k`` independent :meth:`choice` draws, in one call."""
        global _draws
        _draws += k
        pick = self._random.randrange
        n = len(seq)
        return [seq[pick(n)] for _ in range(k)]

    def random(self) -> float:
        global _draws
        _draws += 1
        return self._random.random()

    def bytes(self, n: int) -> bytes:
        global _draws
        _draws += 1
        return bytes(self._random.getrandbits(8) for _ in range(n))

    def shuffle(self, seq: List) -> None:
        global _draws
        _draws += 1
        self._random.shuffle(seq)

    # -- interarrival / service time distributions ------------------------
    def exponential(self, mean: float) -> float:
        """Exponential draw; ``mean`` in the caller's unit (µs here)."""
        global _draws
        _draws += 1
        return self._random.expovariate(1.0 / mean)

    def poisson_interarrival(self, rate_per_us: float) -> float:
        """Interarrival gap for a Poisson process with the given rate."""
        global _draws
        _draws += 1
        return self._random.expovariate(rate_per_us)

    def bimodal(self, low: float, high: float, p_high: float = 0.1) -> float:
        """Bimodal-2 service time: ``low`` w.p. 1-p_high, ``high`` otherwise.

        The paper's high-dispersion workload (§5.4) uses b1/b2 pairs such as
        35µs/60µs — modelled as a two-point distribution.
        """
        global _draws
        _draws += 1
        return high if self._random.random() < p_high else low

    def lognormal(self, mean: float, sigma: float = 0.5) -> float:
        """Log-normal with the requested arithmetic mean."""
        global _draws
        _draws += 1
        mu = math.log(mean) - sigma * sigma / 2.0
        return self._random.lognormvariate(mu, sigma)


class ZipfGenerator:
    """Zipf-distributed integers in [0, n) with parameter ``theta``.

    Uses the standard inverse-CDF rejection method of Gray et al. (the same
    construction YCSB uses), which makes draws O(1) after O(n)-free setup —
    important because the paper's keyspace is 1M keys.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: Rng = None):
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        self.n = n
        self.theta = theta
        self.rng = rng or Rng(7)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self._zeta(2, theta) / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Direct sum for small n; integral approximation for large n keeps
        # setup fast while staying within ~0.1% of the true value.
        if n <= 10_000:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, 10_001))
        tail = ((n ** (1 - theta)) - (10_000 ** (1 - theta))) / (1 - theta)
        return head + tail

    def draw(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    # lo + frac*(hi-lo) is exact when both endpoints are equal, unlike the
    # symmetric weighted form, which can round just outside [lo, hi].
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])
