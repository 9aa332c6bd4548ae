"""Determinism regression tests for the optimized simulation core.

The benchmark tables are only comparable across machines (and across
engine refactors) if a seeded run is bit-for-bit reproducible: same
event firing order, same timestamps, same summary statistics.  These
tests drive a seeded mini-cluster twice through fresh engines and demand
identical traces — any hot-path change that perturbs (time, seq)
ordering fails here before it can silently skew a figure.
"""

import hashlib

from repro.bench.harness import HaloExperiment
from repro.bench.metrics import MAX_RELATIVE_ERROR, percentile


def _trace_mini_cluster(horizon: float = 4.0) -> tuple[str, int, list[float]]:
    """Run a tiny seeded Halo cluster event-by-event; fingerprint the
    full event-processing trace."""
    exp = HaloExperiment(players=80, num_servers=3, seed=5)
    exp.workload.start()
    sim = exp.runtime.sim
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    latencies = sorted(exp.runtime.client_latency._samples)
    return digest.hexdigest(), sim.events_processed, latencies


def test_seeded_mini_cluster_trace_is_reproducible():
    trace_a, events_a, lat_a = _trace_mini_cluster()
    trace_b, events_b, lat_b = _trace_mini_cluster()
    assert events_a > 1_000  # the run actually exercised the cluster
    assert trace_a == trace_b
    assert events_a == events_b
    assert lat_a == lat_b  # identical latency samples, not just digests


def test_benchmark_summary_numbers_reproducible():
    def run_once():
        exp = HaloExperiment(players=100, num_servers=3, seed=2)
        res = exp.run(warmup=3.0, duration=5.0)
        return res, exp.runtime

    res_a, rt_a = run_once()
    res_b, rt_b = run_once()
    assert res_a.requests == res_b.requests
    assert res_a.median == res_b.median
    assert res_a.p95 == res_b.p95
    assert res_a.p99 == res_b.p99
    assert res_a.remote_fraction == res_b.remote_fraction
    assert rt_a.sim.events_processed == rt_b.sim.events_processed


def test_streaming_histogram_matches_exact_recorder_within_resolution():
    """The O(1) histogram the samplers use must agree with the exact
    sort-based recorder to within its bucket resolution."""
    exp = HaloExperiment(players=100, num_servers=3, seed=2)
    exp.run(warmup=3.0, duration=5.0)
    rt = exp.runtime
    exact = rt.client_latency
    hist = rt.client_latency_hist
    assert hist.count == exact.count
    assert hist.total == exact.total
    err = MAX_RELATIVE_ERROR
    for q in (50, 95, 99):
        target = percentile(exact._samples, q)
        assert abs(hist.percentile(q) - target) <= (2 * err + 1e-3) * target
