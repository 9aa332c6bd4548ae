"""§5.4 ablation: the alpha trick vs direct OS wait tracing vs truth.

The paper's estimator infers per-thread service rates s_i and CPU
fractions beta_i from observable (z, x) alone, assuming the ready/compute
ratio alpha is uniform across stages; §5.4 notes that platforms with OS
tracing (ETW) could measure blocking time w_i directly instead.

This ablation runs the blocking-I/O Heartbeat variant on a live silo and
compares three parameter sets against the simulator's ground truth:

* **alpha** — the paper's production path (no OS support needed);
* **direct** — §5.4's ETW alternative (w_i measured);
* **truth**  — computed from the hidden per-event wait/ready times.

The claim under test: the alpha estimates are close enough that the
optimizer's resulting *thread allocation* matches the one computed from
the true parameters.
"""

from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.core.threads.estimator import (
    estimate_stage_loads,
    estimate_stage_loads_direct,
    measure_windows,
)
from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import solve_integer
from repro.queueing.jackson import StageLoad
from repro.workloads.heartbeat import HeartbeatConfig, HeartbeatWorkload
from repro.bench.reporting import render_table

RATE = 2_500.0
IO_WAIT = 0.002  # 2 ms of synchronous blocking per beat


def run_measurement():
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=3))
    workload = HeartbeatWorkload(
        rt, HeartbeatConfig(num_monitors=400, request_rate=RATE,
                            io_wait=IO_WAIT)
    )
    workload.start()
    rt.run(until=10.0)
    server = rt.silos[0].server
    start = server.snapshot()
    rt.run(until=40.0)
    windows = server.windows_since(start)

    alpha_loads = estimate_stage_loads(
        measure_windows(windows, blocking_stages=("worker",))
    )
    direct_loads = estimate_stage_loads_direct(
        measure_windows(windows, blocking_stages=("worker",),
                        os_wait_tracing=True)
    )
    truth_loads = []
    for name, w in windows.items():
        if w.mean_x <= 0:
            truth_loads.append(StageLoad(0.0, 1e7, 1.0, name=name))
            continue
        busy = w.mean_x + w.mean_wait
        truth_loads.append(
            StageLoad(w.arrival_rate, 1.0 / busy, w.mean_x / busy, name=name)
        )
    return windows, alpha_loads, direct_loads, truth_loads


def allocation_for(loads):
    problem = ThreadAllocationProblem(stages=loads, processors=8, eta=1e-4)
    return solve_integer(problem)


def test_ablation_estimator_modes(benchmark, show):
    windows, alpha_loads, direct_loads, truth_loads = benchmark.pedantic(
        run_measurement, rounds=1, iterations=1,
    )

    rows = []
    for a, d, t in zip(alpha_loads, direct_loads, truth_loads):
        rows.append([
            a.name,
            1e6 / t.service_rate_per_thread,
            1e6 / a.service_rate_per_thread,
            1e6 / d.service_rate_per_thread,
            t.cpu_fraction, a.cpu_fraction, d.cpu_fraction,
        ])
    show(render_table(
        ["stage", "true 1/s (us)", "alpha 1/s", "direct 1/s",
         "true beta", "alpha beta", "direct beta"],
        rows,
        title="§5.4 ablation — estimator modes on a blocking-I/O workload",
        floatfmt=".3g",
    ))

    by_name = {t.name: (a, d, t) for a, d, t in
               zip(alpha_loads, direct_loads, truth_loads)}
    worker_a, worker_d, worker_t = by_name["worker"]
    # direct mode is (near-)exact by construction
    assert abs(worker_d.cpu_fraction - worker_t.cpu_fraction) < 0.02
    # the alpha inference lands close on both parameters
    assert abs(worker_a.cpu_fraction - worker_t.cpu_fraction) < 0.15
    ratio = (worker_a.service_rate_per_thread
             / worker_t.service_rate_per_thread)
    assert 0.8 < ratio < 1.25
    # and, decisively, yields the same integer thread allocation
    alloc_alpha = allocation_for(alpha_loads)
    alloc_truth = allocation_for(truth_loads)
    show(f"\n  allocation from alpha estimates: {alloc_alpha}")
    show(f"  allocation from ground truth:    {alloc_truth}")
    assert alloc_alpha == alloc_truth
