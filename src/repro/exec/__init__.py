"""Sweep execution: parallel experiment grids with cached, deterministic
results.

* :class:`ParallelSweep` — fan an experiment grid out to a process pool,
  merge deterministically by point key (bit-identical to a serial run);
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  (code fingerprint, config hash) so re-running figure scripts only
  recomputes dirty points;
* :class:`RackShardExecutor` — parallel-in-time execution: one
  simulator per rack advancing in conservative lookahead windows,
  bit-identical to the serial run (see :mod:`repro.exec.shard`);
* :mod:`repro.exec.grids` — the paper's figures expressed as grids;
* :mod:`repro.exec.bench` — kernel + sweep benchmarks emitting
  ``BENCH_sweep.json``.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, canonical, code_fingerprint
from .shard import RackShardExecutor, serial_twin
from .sweep import (ParallelSweep, SweepPoint, SweepReport,
                    result_fingerprint)
from . import grids

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RackShardExecutor",
    "serial_twin",
    "ResultCache",
    "canonical",
    "code_fingerprint",
    "ParallelSweep",
    "SweepPoint",
    "SweepReport",
    "result_fingerprint",
    "grids",
]
