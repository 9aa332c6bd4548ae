"""Unit tests for the streaming log-bucketed HistogramRecorder."""

import random

import pytest

from repro.bench import metrics
from repro.bench.metrics import HistogramRecorder, LatencyRecorder, percentile


def test_validation():
    hist = HistogramRecorder()
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(50)  # empty
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_exact_counters():
    hist = HistogramRecorder()
    values = [0.001, 0.002, 0.5, 3.0, 0.0001]
    for v in values:
        hist.record(v)
    assert hist.count == 5
    assert hist.total == pytest.approx(sum(values))
    assert hist.mean == pytest.approx(sum(values) / 5)
    assert hist.max_value == 3.0
    assert hist.min_seen == 0.0001


def test_quantiles_within_bucket_resolution():
    """Histogram percentiles agree with the exact sort-based percentile
    to within the configured relative error (one bucket width)."""
    rng = random.Random(42)
    err = metrics.MAX_RELATIVE_ERROR
    hist = HistogramRecorder()
    samples = [rng.lognormvariate(-6.0, 1.0) for _ in range(50_000)]
    for v in samples:
        hist.record(v)
    for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
        exact = percentile(samples, q)
        approx = hist.percentile(q)
        # One bucket of slack plus interpolation slop at the extremes.
        assert approx == pytest.approx(exact, rel=2 * err + 1e-3), f"q={q}"


def test_extreme_quantiles_clamped_to_observed_range():
    hist = HistogramRecorder()
    for v in (0.010, 0.020, 0.030):
        hist.record(v)
    assert hist.percentile(0) >= 0.010
    assert hist.percentile(100) <= 0.030


def test_underflow_bucket(monkeypatch):
    monkeypatch.setattr(metrics, "MIN_VALUE", 1e-3)
    hist = HistogramRecorder()
    hist.record(0.0)
    hist.record(1e-6)
    hist.record(0.5)
    assert hist.count == 3
    assert hist.median <= 1e-3  # tiny values stay tiny


def test_memory_is_bounded_by_dynamic_range():
    hist = HistogramRecorder()
    rng = random.Random(7)
    for _ in range(200_000):
        hist.record(rng.uniform(1e-4, 1e-1))
    # 3 decades at 1% growth: ~log(1000)/log(1.01) = ~695 buckets max.
    assert hist.num_buckets < 800


def test_merge_is_exact_and_matches_single_recorder():
    rng = random.Random(3)
    a, b, combined = (HistogramRecorder() for _ in range(3))
    for _ in range(10_000):
        v = rng.expovariate(100.0)
        (a if rng.random() < 0.5 else b).record(v)
        combined.record(v)
    a.merge(b)
    assert a.count == combined.count
    assert a.total == pytest.approx(combined.total)
    assert a._buckets == combined._buckets
    for q in (50, 95, 99):
        assert a.percentile(q) == combined.percentile(q)


def test_merge_associativity():
    """(a + b) + c and a + (b + c) produce identical bucket counts and
    quantiles."""
    rng = random.Random(11)
    sets = [[rng.lognormvariate(-5, 0.8) for _ in range(5_000)] for _ in range(3)]

    def build(values):
        h = HistogramRecorder()
        for v in values:
            h.record(v)
        return h

    left = build(sets[0])
    ab = build(sets[1])
    left.merge(ab)
    c1 = build(sets[2])
    left.merge(c1)

    right_bc = build(sets[1])
    c2 = build(sets[2])
    right_bc.merge(c2)
    right = build(sets[0])
    right.merge(right_bc)

    assert left._buckets == right._buckets
    assert left.count == right.count
    for q in (50, 90, 99):
        assert left.percentile(q) == right.percentile(q)


def test_summary_shape_matches_latency_recorder():
    hist = HistogramRecorder()
    rec = LatencyRecorder()
    assert hist.summary() == rec.summary()  # both empty
    for v in (0.1, 0.2, 0.3):
        hist.record(v)
        rec.record(v)
    s = hist.summary()
    assert set(s) == {"count", "mean", "median", "p95", "p99"}
    assert s["count"] == 3
    assert s["median"] == pytest.approx(rec.median, rel=0.02)


def test_percentile_since_windows():
    hist = HistogramRecorder()
    for _ in range(100):
        hist.record(0.001)
    snap = hist.snapshot()
    for _ in range(100):
        hist.record(1.0)
    # The window after the snapshot only saw ~1.0s samples.
    assert hist.percentile_since(snap, 50) == pytest.approx(1.0, rel=0.02)
    # The global median straddles both populations.
    assert hist.percentile(99) == pytest.approx(1.0, rel=0.02)
    with pytest.raises(ValueError):
        hist.percentile_since(hist.snapshot(), 50)  # empty window


def test_weighted_reservoir_merge_unbiased(monkeypatch):
    """Merging a down-sampled reservoir must not skew percentiles: the
    merged reservoir draws from each side proportionally to its true
    stream length (regression test for the double-sampling bug)."""
    rng = random.Random(5)
    monkeypatch.setattr(metrics, "RESERVOIR_SEED", 1)
    big = LatencyRecorder(reservoir=500)
    monkeypatch.setattr(metrics, "RESERVOIR_SEED", 2)
    small = LatencyRecorder(reservoir=500)
    # 20k low-latency samples vs 200 high-latency samples: the union's
    # p50 must stay low because the big stream dominates 100:1.
    big_values = [rng.uniform(0.001, 0.002) for _ in range(20_000)]
    for v in big_values:
        big.record(v)
    for _ in range(200):
        small.record(1.0)
    big.merge(small)
    assert big.count == 20_200
    assert big.total == pytest.approx(sum(big_values) + 200.0)
    assert big.median < 0.01  # old replay-merge skewed this toward 1.0
    # The high-latency stream is ~1% of the union: visible at p99.9
    # territory, not the median.
    assert len(big._samples) <= 500


def test_merge_exact_when_nothing_downsampled():
    a = LatencyRecorder()
    b = LatencyRecorder()
    for v in (1.0, 2.0):
        a.record(v)
    for v in (3.0, 4.0):
        b.record(v)
    a.merge(b)
    assert a.count == 4
    assert a.mean == 2.5
    assert sorted(a._samples) == [1.0, 2.0, 3.0, 4.0]


def test_merge_into_empty_and_from_empty():
    a = LatencyRecorder(reservoir=10)
    b = LatencyRecorder(reservoir=10)
    for i in range(100):
        b.record(float(i))
    a.merge(b)
    assert a.count == 100
    assert len(a._samples) == 10
    c = LatencyRecorder()
    a.merge(c)  # merging an empty recorder is a no-op
    assert a.count == 100
