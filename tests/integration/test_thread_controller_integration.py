"""Integration tests: the model-based controller on a live silo."""

import pytest

from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.core.actop import ActOp, ActOpConfig, ThreadControllerConfig
from repro.core.threads.estimator import estimate_alpha, measure_windows
from repro.workloads.heartbeat import HeartbeatConfig, HeartbeatWorkload


def run_heartbeat(optimize, rate=2500.0, seed=3, until=30.0, io_wait=0.0):
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=seed))
    w = HeartbeatWorkload(
        rt, HeartbeatConfig(num_monitors=400, request_rate=rate, io_wait=io_wait)
    )
    actop = None
    if optimize:
        actop = ActOp(rt, ActOpConfig(
            thread_allocation=ThreadControllerConfig(eta=1e-4, period=3.0)))
        actop.start()
    w.start()
    rt.run(until=until)
    return rt, actop


def test_controller_shrinks_default_allocation():
    rt, actop = run_heartbeat(optimize=True)
    alloc = rt.silos[0].server.thread_allocation()
    # The default is 8 threads per stage (32 total on 8 cores); the
    # optimizer should land well under the core count at this load.
    assert sum(alloc.values()) <= 8
    assert all(t >= 1 for t in alloc.values())


def test_controller_reduces_cpu_vs_default():
    base_rt, _ = run_heartbeat(optimize=False)
    opt_rt, _ = run_heartbeat(optimize=True)
    # Same workload, same completions — less CPU burned.
    assert opt_rt.requests_completed == pytest.approx(
        base_rt.requests_completed, rel=0.01
    )
    assert opt_rt.silos[0].server.cpu.busy_time < 0.8 * base_rt.silos[0].server.cpu.busy_time


def test_controller_improves_latency_under_high_load():
    base_rt, _ = run_heartbeat(optimize=False, rate=3200.0, until=40.0)
    opt_rt, _ = run_heartbeat(optimize=True, rate=3200.0, until=40.0)
    assert opt_rt.client_latency.p99 < base_rt.client_latency.p99


def test_alpha_estimate_close_to_ground_truth():
    """The §5.4 estimator must recover the true ready-time ratio from
    observable quantities only (validated against simulator internals)."""
    rt, _ = run_heartbeat(optimize=False, rate=3000.0, until=10.0)
    server = rt.silos[0].server
    start = server.snapshot()
    rt.run(until=20.0)
    windows = server.windows_since(start)
    measured = measure_windows(windows, blocking_stages=("worker",))
    alpha = estimate_alpha(measured)
    # ground truth from the hidden per-event ready times
    truth = {
        name: (w.mean_ready / w.mean_x if w.mean_x else 0.0)
        for name, w in windows.items()
        if w.completions > 100
    }
    for name, true_alpha in truth.items():
        if name == "worker":
            continue
        assert alpha == pytest.approx(true_alpha, abs=0.15)


def test_blocking_workload_gets_extra_worker_threads():
    """With synchronous I/O in beats, the worker stage's beta drops and
    the optimizer must hand it more threads than the pure-CPU case."""
    rt_pure, actop_pure = run_heartbeat(optimize=True, rate=1500.0)
    rt_io, actop_io = run_heartbeat(optimize=True, rate=1500.0, io_wait=0.002)
    workers_pure = rt_pure.silos[0].server.stage("worker").threads
    workers_io = rt_io.silos[0].server.stage("worker").threads
    assert workers_io > workers_pure
