"""Integration tests for the calibrated experiment harness."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    CounterExperiment,
    HeartbeatExperiment,
    HaloExperiment,
    halo_partitioning_config,
    halo_thread_config,
    improvement,
)
from repro.faults import FaultPlan
from repro.workloads import counter


def test_improvement_metric():
    assert improvement(100.0, 50.0) == pytest.approx(50.0)
    assert improvement(100.0, 100.0) == 0.0
    assert improvement(0.0, 10.0) == 0.0  # guarded
    assert improvement(50.0, 75.0) == pytest.approx(-50.0)  # regression


def test_configs_are_fresh_instances():
    a, b = halo_partitioning_config(), halo_partitioning_config()
    assert a is not b
    a.delta = 999
    assert halo_partitioning_config().delta != 999
    assert halo_thread_config(10.0).eta == pytest.approx(1e-3)


def test_counter_experiment_result_fields(monkeypatch):
    monkeypatch.setattr(harness, "COUNTER_TIME_SCALE", 1.0)
    monkeypatch.setattr(counter, "NUM_ACTORS", 100)
    exp = CounterExperiment(request_rate=2_000.0)
    result = exp.run(warmup=2.0, duration=4.0, cdf_points=10)
    assert result.requests > 0
    assert result.median > 0
    assert result.p99 >= result.p95 >= result.median
    assert 0 < result.cpu_utilization < 1
    assert result.remote_fraction == 0.0  # single server, no actor calls
    assert result.cdf and result.cdf[-1][1] == 1.0
    summary = result.summary_ms()
    assert summary["median_ms"] == pytest.approx(result.median * 1000)


def test_counter_experiment_thread_override(monkeypatch):
    monkeypatch.setattr(harness, "COUNTER_TIME_SCALE", 1.0)
    monkeypatch.setattr(counter, "NUM_ACTORS", 50)
    exp = CounterExperiment(request_rate=500.0,
                            threads={"worker": 2, "client_sender": 3})
    assert exp.runtime.silos[0].server.thread_allocation()["worker"] == 2
    assert exp.runtime.silos[0].server.thread_allocation()["client_sender"] == 3


def test_heartbeat_experiment_normalizes_by_time_scale(monkeypatch):
    monkeypatch.setattr(harness, "HEARTBEAT_TIME_SCALE", 1.0)
    r1 = HeartbeatExperiment(request_rate=2_000.0, monitors=100).run(
        warmup=3.0, duration=6.0)
    monkeypatch.setattr(harness, "HEARTBEAT_TIME_SCALE", 4.0)
    r4 = HeartbeatExperiment(request_rate=2_000.0, monitors=100).run(
        warmup=12.0, duration=24.0)
    # Normalized medians agree across time scales (same operating point).
    assert r4.median == pytest.approx(r1.median, rel=0.1)


def test_halo_experiment_small_end_to_end(monkeypatch):
    monkeypatch.setattr(harness, "HALO_TIME_SCALE", 10.0)
    exp = HaloExperiment(load_fraction=0.3, players=300, partitioning=True,
                         num_servers=4)
    result = exp.run(warmup=30.0, duration=30.0, sample_period=10.0)
    assert result.requests > 50
    assert result.migrations > 0
    assert result.remote_fraction < 0.5  # partitioning took effect
    assert result.sampler is not None
    assert len(result.sampler.remote_share) > 0
    assert result.call_median > 0


def test_cpu_utilization_is_the_mean_over_live_silos(monkeypatch):
    """4 of 6 silos crashed before the window: a dead silo is not
    capacity, so the window reports the live mean, not a third of it."""
    monkeypatch.setattr(harness, "HALO_TIME_SCALE", 10.0)
    plan = FaultPlan()
    for server in range(2, 6):
        plan.crash(at=1.0, server=server)
    exp = HaloExperiment(load_fraction=1.0, players=1_000, num_servers=6,
                         seed=3, faults=plan)
    rt = exp.start().runtime
    rt.run(until=2.0)
    busy0 = rt.cpu_busy_snapshot()
    result = exp.measure_window(2.0, 6.0)
    live = [s for s in rt.silos if not s.dead]
    assert [s.server_id for s in live] == [0, 1]
    assert rt.cpu_busy_snapshot()[2:] == busy0[2:]   # crashed: never ran
    expected = sum(s.server.cpu.busy_time - busy0[s.server_id]
                   for s in live) / (len(live) * rt.config.processors * 4.0)
    assert result.cpu_utilization == pytest.approx(expected)
    assert 0.2 < result.cpu_utilization < 0.7
