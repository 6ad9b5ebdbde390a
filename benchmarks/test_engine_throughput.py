"""Raw DES-kernel throughput: events/sec, current kernel vs seed.

The kernel's one scheduling path, ``post``, must beat the seed
kernel's per-event allocating ``call_in`` loop on a pure timer chain;
this benchmark pins that down.

Numbers are best-of-N (CI hosts throttle); the committed perf gate lives
in ``benchmarks/BENCH_baseline.json`` and is enforced by
``python -m repro bench --check`` (see ``.github/workflows/ci.yml``).
"""

from repro.exec.bench import (
    SeedSimulator,
    _chain_eps,
    _process_eps,
)
from repro.sim import Simulator


def test_post_chain_beats_seed_kernel(once, emit):
    seed_eps = _chain_eps(SeedSimulator, events=60_000)
    post_eps = _chain_eps(Simulator, schedule="post", events=60_000)
    once(_chain_eps, Simulator, schedule="post", events=60_000)
    emit(f"timer chain: seed {seed_eps:,.0f} ev/s, "
         f"post {post_eps:,.0f} ev/s ({post_eps / seed_eps:.2f}x)")
    # the fast path exists to be faster; allow jitter headroom on slow CI
    assert post_eps > seed_eps * 1.05


def test_process_timeout_throughput(once, emit):
    eps = _process_eps(events=40_000)
    once(_process_eps, events=40_000)
    emit(f"generator-process Timeout loop: {eps:,.0f} ev/s")
    assert eps > 0
