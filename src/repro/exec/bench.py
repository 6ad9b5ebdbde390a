"""Perf trajectory: kernel microbenchmarks + sweep executor benchmark.

``python -m repro bench`` runs this module and emits ``BENCH_sweep.json``
— the committed perf baseline format CI regresses against:

* **kernel** — events/sec of the DES kernel on four workload shapes
  (a ``post`` timer chain, a generator-process Timeout loop, a dense
  many-timer population, and open-loop Poisson arrival generation),
  plus the same timer chain on a reference copy of the *seed* kernel
  (pre-fast-path ``heapq`` loop with per-event handle allocation) kept
  here so the speedup is measured, not remembered;
* **sweep** — wall-clock of a Figure-16-style grid through
  :class:`~repro.exec.sweep.ParallelSweep` serially, with a process
  pool, and from a warm result cache, asserting along the way that all
  three produce bit-identical results (per-point pickle fingerprints,
  see :func:`~repro.exec.sweep.result_fingerprint`).  On a host without
  ≥2 effective cores the pool comparison is meaningless, so it is
  skipped and annotated (``pool_speedup: null`` + ``pool_note``;
  ``effective_jobs`` is always stamped);
* **shard** — wall-clock of the ``multi-rack-rkv`` scenario executed
  serially vs through the parallel-in-time
  :class:`~repro.exec.shard.RackShardExecutor`, asserting the result
  fingerprints match.  Wall-clock only (never gated): in-process shards
  measure the conservative-window coordination overhead.

Regression policy: ``check_regression`` fails when any ``*_eps`` metric
in any section drops more than 30% below the committed baseline;
wall-clock seconds and speedup ratios never gate.  Sections whose
``effective_jobs`` differ between bench and baseline are skipped
entirely — a 1-core row must never be compared against a 4-core row —
which is why ``meta.runner_cores`` stamps the core count into every
emitted file.

Each section is guarded: if a benchmark raises, the section becomes
``{"error": ...}`` and the remaining sections still run, so
``BENCH_sweep.json`` is always written (CI uploads it ``if: always()``)
and the failure is gated by ``check_regression`` instead of a stack
trace with no artifact.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from ..sim import Simulator, Timeout, spawn
from .cache import ResultCache, code_fingerprint
from .grids import build_grid
from .sweep import ParallelSweep, result_fingerprint

#: Events per microbenchmark run.
_CHAIN_EVENTS = 150_000
_PROCESS_EVENTS = 60_000
_DENSE_TIMERS = 32_768
_DENSE_EVENTS = 120_000
_ARRIVAL_EVENTS = 80_000
_REPEATS = 5

REGRESSION_THRESHOLD = 0.30


# -- reference copy of the seed kernel ----------------------------------------
class SeedSimulator:
    """The seed's DES loop, verbatim in behaviour: a ``heapq`` of
    ``(when, seq, handle)`` with per-event handle allocation, lazy cancel
    with no compaction, and an O(n) ``pending()`` scan.  Kept only as
    the measured baseline for the kernel fast path."""

    class Handle:
        __slots__ = ("when", "_fn", "_args", "cancelled", "fired")

        def __init__(self, when, fn, args):
            self.when = when
            self._fn = fn
            self._args = args
            self.cancelled = False
            self.fired = False

        def cancel(self):
            self.cancelled = True

        def fire(self):
            if not self.cancelled:
                self.fired = True
                self._fn(*self._args)

    def __init__(self):
        self._now = 0.0
        self._heap: List = []
        self._seq = 0

    @property
    def now(self):
        return self._now

    def call_at(self, when, fn, *args):
        handle = SeedSimulator.Handle(when, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, handle))
        return handle

    def call_in(self, delay, fn, *args):
        return self.call_at(self._now + delay, fn, *args)

    def pending(self):
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def run(self, until=None):
        while self._heap:
            when, _seq, handle = self._heap[0]
            if until is not None and when > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = when
            handle.fire()
        if until is not None and until > self._now:
            self._now = until
        return self._now


# -- kernel microbenchmarks ----------------------------------------------------

def _best_of(fn: Callable[[], float], repeats: int = _REPEATS) -> float:
    return max(fn() for _ in range(repeats))


def _chain_eps(make_sim: Callable[[], Any], schedule: str = "call_in",
               events: int = _CHAIN_EVENTS) -> float:
    """Self-rescheduling timer chain; events/sec."""
    def once() -> float:
        sim = make_sim()
        post = getattr(sim, schedule)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < events:
                post(1.0, tick)

        post(1.0, tick)
        t0 = time.perf_counter()
        sim.run()
        return events / (time.perf_counter() - t0)

    return _best_of(once)


def _process_eps(events: int = _PROCESS_EVENTS) -> float:
    """Generator-process Timeout loop (the experiment hot path)."""
    def once() -> float:
        sim = Simulator()

        def proc():
            for _ in range(events):
                yield Timeout(1.0)

        spawn(sim, proc())
        t0 = time.perf_counter()
        sim.run()
        return events / (time.perf_counter() - t0)

    return _best_of(once)


def _dense_eps(timers: int = _DENSE_TIMERS,
               events: int = _DENSE_EVENTS) -> float:
    """A dense population of self-rescheduling timers with spread
    periods — thousands of live events at all times, so every push and
    pop pays a deep heap sift.  Events/sec."""
    def once() -> float:
        sim = Simulator()
        remaining = [events]
        post = sim.post

        def make_tick(period):
            def tick():
                remaining[0] -= 1
                if remaining[0] > 0:
                    post(period, tick)
            return tick

        for i in range(timers):
            period = 0.5 + (i % 1024) * 0.001
            post(period, make_tick(period))
        t0 = time.perf_counter()
        sim.run()
        return events / (time.perf_counter() - t0)

    return _best_of(once)


def _arrival_eps(events: int = _ARRIVAL_EVENTS) -> float:
    """Open-loop Poisson arrival generation into a null sink: the
    bookkeeping cost of producing the packet schedule itself."""
    from types import SimpleNamespace

    from ..scenario.build import ClientPort
    from ..sim import Rng

    def once() -> float:
        sim = Simulator()
        port = ClientPort(sim, SimpleNamespace(send=_drop_packet), "c")
        gen = port.open_loop(dst="s", rate_mpps=1.0, size=64, rng=Rng(7))
        t0 = time.perf_counter()
        sim.run(until=float(events))
        elapsed = time.perf_counter() - t0
        gen.stop()
        return gen.sent / elapsed

    return _best_of(once)


def _drop_packet(packet) -> None:
    pass


def kernel_bench() -> Dict[str, float]:
    seed_chain = _chain_eps(SeedSimulator)
    post_chain = _chain_eps(Simulator, schedule="post")
    return {
        "seed_chain_eps": seed_chain,
        "post_chain_eps": post_chain,
        "process_timeout_eps": _process_eps(),
        "dense_heap_eps": _dense_eps(),
        "perpacket_arrivals_eps": _arrival_eps(),
        "speedup_post_vs_seed": post_chain / seed_chain,
    }


# -- sweep benchmark -----------------------------------------------------------

def _bench_grid(quick: bool):
    """A Figure-16-style grid: policies x loads at one dispersion."""
    loads = (0.5, 0.9) if quick else (0.3, 0.5, 0.7, 0.9)
    duration = 12_000.0 if quick else 30_000.0
    return build_grid("fig16", dispersions=("high",), loads=loads,
                      duration_us=duration)


def effective_parallelism(pool: int) -> int:
    """How many of ``pool`` workers can actually run concurrently here."""
    return max(1, min(pool, os.cpu_count() or 1))


def sweep_bench(pool: int = 4, quick: bool = True,
                cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Serial vs pool-N vs warm-cache wall clock on one grid.

    Asserts that all three paths produce bit-identical (pickle-equal)
    results; raises RuntimeError otherwise.  The pool executor is reused
    for the cold and warm cache passes, so worker startup is paid once.
    On a host with fewer than 2 effective cores the pool timing would
    measure oversubscription, not parallelism — ``pool_speedup`` is then
    ``None`` with a ``pool_note`` explaining why, and the cold-cache
    pass runs serially (the equivalence assertions still hold).
    """
    points = _bench_grid(quick)
    effective_jobs = effective_parallelism(pool)
    pool_jobs = pool if effective_jobs >= 2 else 1

    t0 = time.perf_counter()
    serial = ParallelSweep(jobs=1).run(points)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        root = cache_dir or os.path.join(tmp, "cache")
        with ParallelSweep(jobs=pool_jobs) as executor:
            executor.cache = ResultCache(root)
            t0 = time.perf_counter()
            pooled = executor.run(points)
            pool_s = time.perf_counter() - t0

            executor.cache = ResultCache(root)
            t0 = time.perf_counter()
            cached = executor.run(points)
            cached_s = time.perf_counter() - t0

        serial_fp = result_fingerprint(serial.results)
        if (result_fingerprint(pooled.results) != serial_fp
                or list(pooled.results) != list(serial.results)):
            raise RuntimeError("pool-N sweep diverged from the serial run")
        if (result_fingerprint(cached.results) != serial_fp
                or list(cached.results) != list(serial.results)):
            raise RuntimeError("cached replay diverged from the serial run")

    out: Dict[str, Any] = {
        "grid": "fig16-high-dispersion",
        "points": serial.points,
        "pool": pool,
        "effective_jobs": effective_jobs,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "cached_s": cached_s,
        "pool_speedup": serial_s / pool_s if pool_s > 0 else 0.0,
        "cached_speedup": serial_s / cached_s if cached_s > 0 else 0.0,
        "cache_hit_rate": cached.hit_rate,
        "identical": True,
    }
    if effective_jobs < 2:
        out["pool_speedup"] = None
        out["pool_note"] = (f"host has {effective_jobs} effective core(s); "
                            f"pool comparison skipped")
    return out


# -- shard benchmark -----------------------------------------------------------

def shard_bench(spec_name: str = "multi-rack-rkv",
                duration_us: float = 5_000.0) -> Dict[str, Any]:
    """Serial vs rack-sharded wall clock on one multi-rack scenario.

    Asserts the fingerprints match (the executor's contract).  Pure
    wall-clock — never gated: in-process shards measure the
    conservative-window coordination overhead."""
    from ..scenario import load_shipped, run_scenario
    from .shard import RackShardExecutor, serial_twin

    spec = load_shipped(spec_name)
    t0 = time.perf_counter()
    serial = run_scenario(serial_twin(spec), duration_us=duration_us)
    serial_s = time.perf_counter() - t0

    executor = RackShardExecutor(spec, duration_us=duration_us)
    t0 = time.perf_counter()
    sharded = executor.run()
    shard_s = time.perf_counter() - t0

    match = serial.fingerprint() == sharded.fingerprint()
    if not match:
        raise RuntimeError(
            f"sharded {spec_name} diverged from the serial run")
    return {
        "spec": spec_name,
        "racks": len(spec.racks),
        "duration_us": duration_us,
        "serial_s": serial_s,
        "shard_s": shard_s,
        "shard_speedup": serial_s / shard_s if shard_s > 0 else 0.0,
        "rounds": executor.rounds,
        "transfers": executor.transfers,
        "match": match,
    }


# -- figure wall-clock ---------------------------------------------------------

def figure_wallclock(quick: bool = True, jobs: int = 1) -> Dict[str, float]:
    """Wall-clock seconds per figure grid through the executor."""
    out: Dict[str, float] = {}
    with ParallelSweep(jobs=jobs) as executor:
        for name in ("fig5", "fig16"):
            points = build_grid(name, quick)
            t0 = time.perf_counter()
            executor.run(points)
            out[name] = time.perf_counter() - t0
    return out


# -- assembly / regression gate ------------------------------------------------

def _guarded(fn: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """Run one bench section; on failure stamp the error instead of
    aborting the whole bench, so the output file is always written."""
    try:
        return fn()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _tenancy_available() -> bool:
    """True when this build carries the TenantPlane (the multi-tenant
    spec grammar + hierarchical DRR).  Stamped into ``meta`` so a bench
    file records which capability generation produced it; baselines
    written before the TenantPlane simply lack the key, and
    ``check_regression`` skips the whole ``meta`` section, so the flag
    can never gate."""
    try:
        from ..scenario import TenantSpec  # noqa: F401
    except ImportError:
        return False
    return True


def run_bench(pool: int = 4, quick: bool = True,
              figures: bool = False) -> Dict[str, Any]:
    bench: Dict[str, Any] = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "runner_cores": os.cpu_count() or 1,
            "code_fingerprint": code_fingerprint()[:16],
            "quick": quick,
            "tenancy": _tenancy_available(),
        },
        "kernel": _guarded(kernel_bench),
        "sweep": _guarded(lambda: sweep_bench(pool=pool, quick=quick)),
        "shard": _guarded(shard_bench),
    }
    if figures:
        bench["figures_wall_s"] = _guarded(
            lambda: figure_wallclock(quick=quick, jobs=pool))
    return bench


def write_bench(bench: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_regression(bench: Dict[str, Any], baseline: Dict[str, Any],
                     threshold: float = REGRESSION_THRESHOLD) -> List[str]:
    """Compare events/sec metrics against a committed baseline.

    Returns a list of failure strings (empty == pass).  Every ``*_eps``
    metric in every baseline section gates; wall-clock seconds and
    speedup ratios vary too much across hosts.  A section that errored
    (``{"error": ...}``) is one failure.  A section whose
    ``effective_jobs`` differs from the baseline's ran on a different
    core count and is skipped — its numbers are not comparable.
    """
    failures = []
    for section, base_metrics in baseline.items():
        if section == "meta" or not isinstance(base_metrics, dict):
            continue
        new_metrics = bench.get(section, {})
        if isinstance(new_metrics, dict) and "error" in new_metrics:
            failures.append(f"{section}: errored: {new_metrics['error']}")
            continue
        base_jobs = base_metrics.get("effective_jobs")
        if (base_jobs is not None
                and new_metrics.get("effective_jobs") != base_jobs):
            continue
        for name, base_value in base_metrics.items():
            if not name.endswith("_eps") \
                    or not isinstance(base_value, (int, float)):
                continue
            new_value = new_metrics.get(name)
            if new_value is None:
                failures.append(f"{section}.{name}: missing from new bench")
                continue
            floor = base_value * (1.0 - threshold)
            if new_value < floor:
                failures.append(
                    f"{section}.{name}: {new_value:,.0f} ev/s is "
                    f"{1 - new_value / base_value:.0%} below baseline "
                    f"{base_value:,.0f} (allowed {threshold:.0%})")
    return failures
