"""Tests for seeded distributions and stats trackers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Ewma, LatencyRecorder, LatencyTracker, Rng, UtilizationTracker, ZipfGenerator, percentile


def test_rng_is_deterministic_per_seed():
    a = Rng(123)
    b = Rng(123)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_fork_independent_streams():
    base = Rng(1)
    fork_a = base.fork(1)
    fork_b = base.fork(2)
    assert [fork_a.random() for _ in range(3)] != [fork_b.random() for _ in range(3)]


def test_exponential_mean_close():
    rng = Rng(9)
    samples = [rng.exponential(32.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert abs(mean - 32.0) / 32.0 < 0.05


def test_bimodal_values_and_mix():
    rng = Rng(5)
    samples = [rng.bimodal(35.0, 60.0, p_high=0.1) for _ in range(20000)]
    assert set(samples) == {35.0, 60.0}
    frac_high = sum(1 for s in samples if s == 60.0) / len(samples)
    assert abs(frac_high - 0.1) < 0.02


def test_poisson_interarrival_rate():
    rng = Rng(3)
    rate = 0.5  # per µs
    gaps = [rng.poisson_interarrival(rate) for _ in range(20000)]
    assert abs(sum(gaps) / len(gaps) - 1.0 / rate) < 0.1


def test_lognormal_mean():
    rng = Rng(11)
    samples = [rng.lognormal(10.0, sigma=0.5) for _ in range(30000)]
    assert abs(sum(samples) / len(samples) - 10.0) < 0.5


def test_zipf_skews_toward_low_ranks():
    gen = ZipfGenerator(n=1000, theta=0.99, rng=Rng(4))
    draws = [gen.draw() for _ in range(20000)]
    assert all(0 <= d < 1000 for d in draws)
    top10 = sum(1 for d in draws if d < 10) / len(draws)
    assert top10 > 0.3  # heavy head, as zipf(0.99) implies


def test_zipf_large_keyspace_setup_is_fast_and_valid():
    gen = ZipfGenerator(n=1_000_000, theta=0.99, rng=Rng(4))
    draws = [gen.draw() for _ in range(1000)]
    assert all(0 <= d < 1_000_000 for d in draws)


def test_zipf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfGenerator(n=0)
    with pytest.raises(ValueError):
        ZipfGenerator(n=10, theta=1.5)


def test_percentile_interpolation():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 50) == 2.5


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_percentile_within_sample_range(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)


def test_ewma_converges_to_constant():
    ewma = Ewma(alpha=0.5)
    for _ in range(50):
        ewma.update(10.0)
    assert abs(ewma.get() - 10.0) < 1e-9


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)


def test_latency_tracker_tail_above_mean():
    tracker = LatencyTracker()
    rng = Rng(2)
    for _ in range(2000):
        tracker.record(rng.exponential(20.0))
    assert tracker.tail > tracker.mu
    assert tracker.sigma > 0


def test_latency_tracker_constant_stream_has_zero_sigma():
    tracker = LatencyTracker()
    for _ in range(100):
        tracker.record(5.0)
    assert tracker.mu == pytest.approx(5.0)
    assert tracker.sigma == pytest.approx(0.0, abs=1e-6)
    assert tracker.tail == pytest.approx(5.0, abs=1e-5)


def test_latency_tracker_mu_plus_3sigma_approximates_p99_for_normalish():
    # For a normal distribution, µ+3σ ≈ P99.87; the paper uses it as a P99
    # proxy.  Check it lands above the true P99 and below the max for a
    # wide lognormal stream.
    tracker = LatencyTracker(alpha=0.05)
    recorder = LatencyRecorder()
    rng = Rng(8)
    for _ in range(5000):
        s = rng.lognormal(30.0, sigma=0.2)
        tracker.record(s)
        recorder.record(s)
    assert tracker.tail == pytest.approx(recorder.p99, rel=0.25)


def test_latency_recorder_percentiles():
    rec = LatencyRecorder("x")
    for v in range(1, 101):
        rec.record(float(v))
    assert rec.mean == pytest.approx(50.5)
    assert rec.p50 == pytest.approx(50.5)
    assert rec.p99 == pytest.approx(99.01)
    assert rec.maximum == 100.0
    assert len(rec) == 100


def test_utilization_tracker_window():
    tracker = UtilizationTracker()
    tracker.add_busy(30.0)
    assert tracker.utilization(100.0) == pytest.approx(0.3)
    tracker.add_busy(50.0)
    assert tracker.utilization(200.0) == pytest.approx(0.4)
    assert tracker.utilization(0.0) == 0.0


def test_utilization_caps_at_one():
    tracker = UtilizationTracker()
    tracker.add_busy(500.0)
    assert tracker.utilization(100.0) == 1.0
