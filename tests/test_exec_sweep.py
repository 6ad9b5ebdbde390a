"""Determinism and caching tests for the sweep executor.

The executor's contract is strict: a parallel run and a cached replay
must be *byte-identical* (pickle-equal) to the serial reference run —
including traced scheduler points and seeded FaultPlane chaos schedules.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.exec import (
    ParallelSweep,
    ResultCache,
    SweepPoint,
    canonical,
    code_fingerprint,
    result_fingerprint,
)
from repro.exec.grids import GRID_DEFS, build_grid, chaos_point
from repro.experiments.scheduler_study import run_point
from repro.nic import LIQUIDIO_CN2350


def square(x):
    return x * x


def pair(a, b=0):
    return (a, b)


# -- canonical / keys ---------------------------------------------------------

def test_canonical_is_order_independent_for_mappings():
    assert canonical({"b": 2, "a": 1}) == canonical({"a": 1, "b": 2})
    assert canonical({1: "x", 2: "y"}) == canonical({2: "y", 1: "x"})


def test_canonical_distinguishes_container_types():
    assert canonical([1, 2]) != canonical((1, 2))
    assert canonical({1, 2}) == canonical({2, 1})


def test_canonical_handles_dataclasses_by_field():
    @dataclasses.dataclass
    class Cfg:
        rate: float
        name: str

    assert canonical(Cfg(1.5, "a")) == canonical(Cfg(1.5, "a"))
    assert canonical(Cfg(1.5, "a")) != canonical(Cfg(2.5, "a"))
    assert "Cfg" in canonical(Cfg(1.5, "a"))


def test_canonical_rejects_objects_with_address_reprs():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        canonical(Opaque())


def test_cache_key_depends_on_kwargs_and_code_fingerprint(tmp_path):
    cache = ResultCache(tmp_path / "c")
    k1 = cache.key_for(square, {"x": 1})
    k2 = cache.key_for(square, {"x": 2})
    assert k1 != k2
    other = ResultCache(tmp_path / "c", code_fp="0" * 64)
    assert other.key_for(square, {"x": 1}) != k1


def test_nic_spec_kwargs_produce_stable_keys(tmp_path):
    # NicSpec is a dataclass: the exact kwargs the figure grids pass must
    # canonicalise without tripping the address-repr guard.
    cache = ResultCache(tmp_path / "c")
    key = cache.key_for(run_point, {"spec": LIQUIDIO_CN2350, "policy": "fcfs",
                                    "dispersion": "low", "load": 0.5})
    assert key == cache.key_for(run_point,
                                {"load": 0.5, "dispersion": "low",
                                 "policy": "fcfs", "spec": LIQUIDIO_CN2350})


# -- ResultCache --------------------------------------------------------------

def test_cache_roundtrip_and_miss_stats(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = cache.key_for(square, {"x": 3})
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, 9)
    hit, value = cache.get(key)
    assert hit and value == 9
    assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = cache.key_for(square, {"x": 3})
    cache.put(key, 9)
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    hit, _ = cache.get(key)
    assert not hit


def test_cache_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    for x in range(3):
        cache.put(cache.key_for(square, {"x": x}), x * x)
    assert cache.clear() == 3
    hit, _ = cache.get(cache.key_for(square, {"x": 0}))
    assert not hit


# -- ParallelSweep mechanics --------------------------------------------------

def test_merge_order_is_sorted_key_order_not_input_order():
    points = [SweepPoint(("b", 2), square, {"x": 2}),
              SweepPoint(("a", 9), square, {"x": 3}),
              SweepPoint(("b", 1), square, {"x": 4})]
    report = ParallelSweep(jobs=1).run(points)
    assert list(report.results) == [("a", 9), ("b", 1), ("b", 2)]
    assert report.results[("a", 9)] == 9


def test_duplicate_point_keys_are_rejected():
    points = [SweepPoint(("a",), square, {"x": 1}),
              SweepPoint(("a",), square, {"x": 2})]
    with pytest.raises(ValueError, match="duplicate"):
        ParallelSweep(jobs=1).run(points)


def test_sweep_reports_executed_and_hits(tmp_path):
    cache = ResultCache(tmp_path / "c")
    points = [SweepPoint((x,), square, {"x": x}) for x in range(4)]
    first = ParallelSweep(cache=cache).run(points)
    assert (first.executed, first.cache_hits) == (4, 0)
    replay = ParallelSweep(cache=ResultCache(tmp_path / "c")).run(points)
    assert (replay.executed, replay.cache_hits) == (0, 4)
    assert replay.hit_rate == 1.0
    assert pickle.dumps(replay.results) == pickle.dumps(first.results)


# -- byte-identity: parallel and cached vs serial -----------------------------

def _tiny_fig16_points(traced=False):
    points = []
    for policy in ("fcfs", "ipipe"):
        for load in (0.5, 0.8):
            points.append(SweepPoint(
                (policy, load, traced), run_point,
                dict(spec=LIQUIDIO_CN2350, policy=policy, dispersion="high",
                     load=load, duration_us=4_000.0, seed=1, traced=traced)))
    return points


def test_parallel_sweep_is_byte_identical_to_serial():
    serial = ParallelSweep(jobs=1).run(_tiny_fig16_points())
    pooled = ParallelSweep(jobs=2).run(_tiny_fig16_points())
    assert pickle.dumps(pooled.results) == pickle.dumps(serial.results)


def test_traced_points_survive_the_pool_byte_identically():
    # traced=True attaches a TracePlane and returns its per-stage table;
    # the pool path must reproduce the serial stage report exactly.
    # (Compared per point: whole-dict pickles additionally encode string
    # interning accidents across points — see result_fingerprint.)
    serial = ParallelSweep(jobs=1).run(_tiny_fig16_points(traced=True))
    pooled = ParallelSweep(jobs=2).run(_tiny_fig16_points(traced=True))
    assert list(pooled.results) == list(serial.results)
    assert result_fingerprint(pooled.results) == result_fingerprint(serial.results)
    sample = next(iter(serial.results.values()))
    assert len(sample) == 3 and isinstance(sample[2], dict)


def test_cached_replay_is_byte_identical_to_serial(tmp_path):
    points = _tiny_fig16_points()
    serial = ParallelSweep(jobs=1).run(points)
    cold = ParallelSweep(jobs=1, cache=ResultCache(tmp_path / "c")).run(points)
    warm = ParallelSweep(jobs=1, cache=ResultCache(tmp_path / "c")).run(points)
    assert warm.cache_hits == len(points) and warm.executed == 0
    for report in (cold, warm):
        assert pickle.dumps(report.results) == pickle.dumps(serial.results)


def test_stale_code_fingerprint_invalidates_the_cache(tmp_path):
    points = _tiny_fig16_points()[:1]
    ParallelSweep(jobs=1, cache=ResultCache(tmp_path / "c")).run(points)
    stale = ResultCache(tmp_path / "c", code_fp="f" * 64)
    report = ParallelSweep(jobs=1, cache=stale).run(points)
    assert report.cache_hits == 0 and report.executed == 1


def test_chaos_fingerprint_identical_across_pool_and_cache(tmp_path):
    # Seeded FaultPlane schedules: the chaos telemetry fingerprint (fault
    # schedule + recovery counters) must replay byte-identically through
    # every execution path.
    points = [SweepPoint(("chaos", "rkv", 42), chaos_point,
                         dict(workload="rkv", seed=42,
                              duration_us=20_000.0))]
    serial = ParallelSweep(jobs=1).run(points)
    cold = ParallelSweep(jobs=2, cache=ResultCache(tmp_path / "c")).run(points)
    warm = ParallelSweep(jobs=2, cache=ResultCache(tmp_path / "c")).run(points)
    fp = result_fingerprint(serial.results)
    assert result_fingerprint(cold.results) == fp
    assert result_fingerprint(warm.results) == fp
    assert warm.cache_hits == 1
    result = serial.results[("chaos", "rkv", 42)]
    assert result["fingerprint"] == cold.results[("chaos", "rkv", 42)]["fingerprint"]
    assert isinstance(result["fingerprint"], tuple)


def test_result_fingerprint_detects_any_content_change():
    base = {("a",): (1.0, 2.0), ("b",): (3.0, 4.0)}
    assert result_fingerprint(base) == result_fingerprint(dict(base))
    changed = {("a",): (1.0, 2.0), ("b",): (3.0, 4.5)}
    reordered = {("b",): (3.0, 4.0), ("a",): (1.0, 2.0)}
    assert result_fingerprint(changed) != result_fingerprint(base)
    assert result_fingerprint(reordered) != result_fingerprint(base)


def test_code_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", sorted(GRID_DEFS))
def test_grid_definition_builds_bindable_points(name, quick):
    # builds only, runs nothing: every cell is keyed under its grid's
    # name, and its kwargs bind to its point function's signature
    points = build_grid(name, quick)
    assert points
    keys = [point.key for point in points]
    assert len(set(keys)) == len(keys)
    for point in points:
        assert point.key[0] == name
        inspect.signature(point.fn).bind(**point.kwargs)


def test_chaos_grid_quick_uses_the_study_registry_preset():
    from repro.experiments.chaos_study import STUDIES

    quick = build_grid("chaos", True)
    assert [p.kwargs["workload"] for p in quick] == ["rkv", "dt", "rta"]
    for point in quick:
        preset = STUDIES[point.kwargs["workload"]].quick
        assert {k: point.kwargs[k] for k in preset} == preset
    assert all("duration_us" not in p.kwargs
               for p in build_grid("chaos", False))
    override = build_grid("chaos", True, duration_us=5_000.0)
    assert {p.kwargs["duration_us"] for p in override} == {5_000.0}
