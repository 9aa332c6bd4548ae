"""Unit tests for latency recorders, time series, and serialization costs."""

import numpy as np
import pytest

from repro.actor.serialization import SerializationModel
from repro.bench import metrics
from repro.bench.metrics import LatencyRecorder, TimeSeries, percentile


def test_percentile_matches_numpy():
    data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0, 25, 50, 75, 90, 99, 100):
        assert percentile(data, q) == pytest.approx(np.percentile(data, q))


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_recorder_summary():
    rec = LatencyRecorder()
    for v in (0.1, 0.2, 0.3, 0.4):
        rec.record(v)
    s = rec.summary()
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(0.25)
    assert rec.median == pytest.approx(0.25)
    assert rec.max_value == 0.4


def test_recorder_rejects_negative():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-0.1)


def test_empty_recorder_summary():
    assert LatencyRecorder().summary()["count"] == 0


def test_reservoir_caps_memory_keeps_exact_mean(monkeypatch):
    monkeypatch.setattr(metrics, "RESERVOIR_SEED", 1)
    rec = LatencyRecorder(reservoir=100)
    for i in range(10_000):
        rec.record(float(i))
    assert rec.count == 10_000
    assert len(rec._samples) == 100
    assert rec.mean == pytest.approx(4999.5)
    # Reservoir percentiles are estimates; allow a loose band.
    assert rec.median == pytest.approx(5000.0, rel=0.3)


def test_cdf_monotone_and_complete():
    rec = LatencyRecorder()
    for i in range(1000):
        rec.record(i / 1000.0)
    cdf = rec.cdf(points=50)
    values = [v for v, _ in cdf]
    quantiles = [q for _, q in cdf]
    assert values == sorted(values)
    assert quantiles == sorted(quantiles)
    assert quantiles[-1] == 1.0


def test_recorder_merge():
    a, b = LatencyRecorder(), LatencyRecorder()
    a.record(1.0)
    b.record(3.0)
    a.merge(b)
    assert a.count == 2
    assert a.mean == 2.0


def test_timeseries_order_enforced():
    ts = TimeSeries()
    ts.record(1.0, 10.0)
    ts.record(2.0, 20.0)
    with pytest.raises(ValueError):
        ts.record(1.5, 5.0)
    assert ts.last() == 20.0
    assert len(ts) == 2


def test_timeseries_tail_mean():
    ts = TimeSeries()
    for i in range(10):
        ts.record(float(i), 0.0 if i < 5 else 10.0)
    assert ts.tail_mean(0.5) == 10.0
    assert list(ts.items())[0] == (0.0, 0.0)


def test_timeseries_merge_interleaves_by_timestamp():
    a, b = TimeSeries(), TimeSeries()
    for t, v in [(0.0, 1.0), (2.0, 2.0), (4.0, 3.0)]:
        a.record(t, v)
    for t, v in [(1.0, 10.0), (2.0, 20.0), (5.0, 30.0)]:
        b.record(t, v)
    a.merge(b)
    # a's sample precedes b's on the t=2.0 tie (stable, silo order)
    assert list(a.items()) == [
        (0.0, 1.0), (1.0, 10.0), (2.0, 2.0), (2.0, 20.0),
        (4.0, 3.0), (5.0, 30.0),
    ]
    assert list(b.items()) == [(1.0, 10.0), (2.0, 20.0), (5.0, 30.0)]


def test_timeseries_merge_appends_on_disjoint_ranges():
    a, b = TimeSeries(), TimeSeries()
    a.record(0.0, 1.0)
    a.record(1.0, 2.0)
    b.record(1.0, 9.0)                 # equal boundary takes the fast path
    b.record(3.0, 8.0)
    a.merge(b)
    assert list(a.items()) == [
        (0.0, 1.0), (1.0, 2.0), (1.0, 9.0), (3.0, 8.0)]
    a.merge(TimeSeries())              # merging empty is a no-op
    assert len(a) == 4


def test_serialization_costs_grow_with_size():
    model = SerializationModel()
    assert model.serialize_cost(1000) > model.serialize_cost(10)
    assert model.deserialize_cost(1000) > model.deserialize_cost(10)
    assert model.copy_cost(500) < model.serialize_cost(500)


def test_serialization_scaled():
    model = SerializationModel()
    double = model.scaled(2.0)
    assert double.serialize_cost(100) == pytest.approx(2 * model.serialize_cost(100))
    assert double.copy_cost(100) == pytest.approx(2 * model.copy_cost(100))
    with pytest.raises(ValueError):
        model.scaled(0.0)
