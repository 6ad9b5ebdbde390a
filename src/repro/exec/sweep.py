"""Parallel sweep executor with deterministic merge and result caching.

Every paper figure is a grid of independent simulation points (load
levels, NIC specs, chaos seeds).  :class:`ParallelSweep` fans such a
grid out to a process pool and merges the results *deterministically by
point key* — each point runs its own :class:`~repro.sim.Simulator` from
its own seeds, so a worker process computes bit-identical results to a
serial run, and the merge order is the sorted key order regardless of
completion order.  The optional :class:`~repro.exec.cache.ResultCache`
makes re-running figure scripts recompute only dirty points.

Point functions must be module-level (picklable by reference) and return
picklable values.  The pool uses the ``fork`` start method where
available so workers inherit the parent's interpreter state — including
``PYTHONHASHSEED`` — which keeps any hash-order-dependent iteration
identical across parent and children.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .cache import ResultCache


def result_fingerprint(results: Mapping[Tuple, Any]) -> str:
    """Canonical digest of a merged result mapping: SHA-256 over each
    (key, value) pickled *independently*, in mapping order.

    Two result sets are bit-identical iff their fingerprints match.
    Pickling the whole dict in one go would additionally encode CPython
    string-interning accidents — the pickler memoises by object identity,
    so an interned string shared between a key tuple and a value (or
    between two values) becomes a back-reference in an all-in-process run
    but not after a pool or cache round trip, changing the bytes without
    changing any content.  Per-point pickles are immune to that.
    """
    digest = hashlib.sha256()
    for key, value in results.items():
        digest.update(pickle.dumps(key))
        digest.update(b"\0")
        digest.update(pickle.dumps(value))
        digest.update(b"\0")
    return digest.hexdigest()


class SweepPoint:
    """One cell of an experiment grid: a key, a function, its kwargs."""

    __slots__ = ("key", "fn", "kwargs")

    def __init__(self, key: Tuple, fn: Callable, kwargs: Mapping[str, Any]):
        self.key = key
        self.fn = fn
        self.kwargs = dict(kwargs)

    def __repr__(self) -> str:
        return f"SweepPoint({self.key!r}, {self.fn.__qualname__})"


def _execute(payload: Tuple[Callable, Dict[str, Any]]) -> Any:
    fn, kwargs = payload
    return fn(**kwargs)


def _worker_init() -> None:
    """Pool-worker initializer: pay the heavy experiment imports once per
    worker instead of once per point.  Under the ``spawn`` start method a
    fresh interpreter imports ``repro`` lazily on the first unpickled
    point — front-loading it here moves that cost out of the measured
    per-point path (under ``fork`` the modules are inherited and these
    imports are no-ops)."""
    from ..experiments import scheduler_study  # noqa: F401
    from ..experiments import characterization  # noqa: F401
    from .. import scenario  # noqa: F401


@dataclass
class SweepReport:
    """Outcome of one executor run."""

    results: Dict[Tuple, Any]          # ordered by sorted point key
    jobs: int
    executed: int                      # points actually computed
    cache_hits: int
    wall_s: float
    cache_dir: Optional[str] = None
    keys_executed: List[Tuple] = field(default_factory=list)

    @property
    def points(self) -> int:
        return len(self.results)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    def summary(self) -> str:
        return (f"{self.points} points in {self.wall_s:.2f}s wall "
                f"(jobs={self.jobs}, computed={self.executed}, "
                f"cache hits={self.cache_hits}, "
                f"hit rate={self.hit_rate:.0%})")


def _sort_key(point: SweepPoint):
    # Mixed-type keys (rare) fall back to repr ordering, still total.
    return tuple((type(part).__name__, repr(part)) for part in point.key)


class ParallelSweep:
    """Fan a grid of :class:`SweepPoint` out to a process pool.

    ``jobs=1`` executes inline (no pool, no pickling) — the serial
    reference path the determinism tests compare against.  ``jobs=0``
    means one worker per CPU.

    The pool is created lazily on the first parallel :meth:`run` and
    **reused across runs** — worker startup (process creation plus the
    initializer's imports) is paid once per executor, not once per grid
    cell.  Call :meth:`close` (or use the executor as a context manager)
    to release the workers; an executor that is garbage-collected
    terminates its pool.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 mp_start: str = "fork"):
        if jobs == 0:
            jobs = multiprocessing.cpu_count()
        self.jobs = max(1, jobs)
        self.cache = cache
        if mp_start not in multiprocessing.get_all_start_methods():
            mp_start = "spawn"
        self.mp_start = mp_start
        self._pool = None

    def _get_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context(self.mp_start)
            self._pool = ctx.Pool(processes=self.jobs,
                                  initializer=_worker_init)
        return self._pool

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelSweep":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.terminate()

    def run(self, points: Iterable[SweepPoint]) -> SweepReport:
        t0 = time.perf_counter()
        ordered = sorted(points, key=_sort_key)
        keys = [p.key for p in ordered]
        if len(set(keys)) != len(keys):
            seen: set = set()
            dup = next(k for k in keys if k in seen or seen.add(k))
            raise ValueError(f"duplicate sweep point key: {dup!r}")

        results: Dict[Tuple, Any] = {}
        todo: List[SweepPoint] = []
        todo_cache_keys: Dict[Tuple, str] = {}
        cache = self.cache
        if cache is not None:
            for point in ordered:
                ckey = cache.key_for(point.fn, point.kwargs)
                hit, value = cache.get(ckey)
                if hit:
                    results[point.key] = value
                else:
                    todo.append(point)
                    todo_cache_keys[point.key] = ckey
        else:
            todo = list(ordered)

        cache_hits = len(ordered) - len(todo)
        computed: Dict[Tuple, Any] = {}
        if todo:
            if self.jobs <= 1 or len(todo) == 1:
                for point in todo:
                    computed[point.key] = point.fn(**point.kwargs)
            else:
                payloads = [(p.fn, p.kwargs) for p in todo]
                values = self._get_pool().map(_execute, payloads, chunksize=1)
                for point, value in zip(todo, values):
                    computed[point.key] = value
            if cache is not None:
                for point in todo:
                    cache.put(todo_cache_keys[point.key], computed[point.key])
        results.update(computed)

        # deterministic merge: sorted key order, independent of worker
        # completion order and of the caller's point order
        merged = {p.key: results[p.key] for p in ordered}
        return SweepReport(
            results=merged, jobs=self.jobs,
            executed=len(todo), cache_hits=cache_hits,
            wall_s=time.perf_counter() - t0,
            cache_dir=str(cache.root) if cache is not None else None,
            keys_executed=[p.key for p in todo],
        )
