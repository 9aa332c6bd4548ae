"""Pool balancing study: Stageflow on heterogeneous capacity.

Load-aware routing beats oblivious round-robin on heterogeneous
capacity.  The route→enrich→transform inference pipeline
(:mod:`repro.workloads.stageflow`) runs over :mod:`repro.pools` actor
pools on two silos.  Round-robin keeps feeding a silo that computes 3x
slower; the DPA-style policy sees the silo's reported worker-stage
occupancy + CPU pressure (and its own in-flight counts) and routes
around it.  On a *symmetric* bimodal mix DPA must still at least match
round-robin — load-awareness is not allowed to cost anything when there
is nothing to be aware of.

Both runs are seeded and deterministic; numbers land in EXPERIMENTS.md.
"""

from repro import ClusterConfig, build_cluster
from repro.bench.reporting import render_table
from repro.faults import FaultPlan
from repro.workloads.stageflow import StageflowConfig, StageflowWorkload

SEED = 3
PROCESSORS = 2
WARMUP = 2.0
END = 17.0


def _policy_run(policy: str, faults=None):
    """(requests, median, p99, mean CPU utilization) over [WARMUP, END)
    of a 2-silo, 300 req/s, 25%-heavy Stageflow run."""
    cluster = build_cluster(
        ClusterConfig(num_servers=2, processors=PROCESSORS, seed=SEED),
        faults=faults)
    workload = StageflowWorkload(cluster.runtime, StageflowConfig(
        base_rate=300.0, heavy_fraction=0.25, policy=policy))
    cluster.start()
    workload.start()
    rt = cluster.runtime
    rt.run(until=WARMUP)
    rt.reset_latency_stats()
    busy0, t0 = rt.cpu_busy_snapshot(), rt.sim.now
    rt.run(until=END)
    lat = rt.client_latency
    return (lat.count, lat.median, lat.p99,
            rt.mean_cpu_utilization(busy0, t0))


def test_dpa_beats_round_robin_on_slow_silo():
    """Heterogeneous capacity: one of two silos computes 3x slower for
    10 s.  Round-robin keeps sending it half the traffic; DPA routes
    around it on the reported contention signal."""
    rows = []
    results = {}
    for policy in ("round_robin", "dpa"):
        r = _policy_run(
            policy,
            faults=FaultPlan().slow_silo(4.0, 14.0, server=1, factor=3.0))
        results[policy] = r
        requests, median, p99, cpu = r
        rows.append([policy, requests, median * 1e3, p99 * 1e3, 100 * cpu])

    print()
    print(render_table(
        ["policy", "requests", "median ms", "p99 ms", "CPU %"],
        rows,
        title="silo 1 of 2 slowed 3x during [4, 14) — 25% heavy mix",
    ))
    _, rr_median, rr_p99, _ = results["round_robin"]
    _, dpa_median, dpa_p99, _ = results["dpa"]
    assert dpa_p99 < 0.5 * rr_p99, (
        f"dpa p99 {dpa_p99 * 1e3:.1f}ms not decisively better than "
        f"round_robin {rr_p99 * 1e3:.1f}ms")
    assert dpa_median < rr_median


def test_dpa_matches_round_robin_on_symmetric_cluster():
    """No asymmetry to exploit: load-awareness must cost ~nothing."""
    _, rr_median, rr_p99, _ = _policy_run("round_robin")
    _, dpa_median, dpa_p99, _ = _policy_run("dpa")
    print(f"\nsymmetric: rr p50={rr_median * 1e3:.1f} "
          f"p99={rr_p99 * 1e3:.1f} | dpa p50={dpa_median * 1e3:.1f} "
          f"p99={dpa_p99 * 1e3:.1f}")
    assert dpa_median <= 1.25 * rr_median
    assert dpa_p99 <= 1.25 * rr_p99
