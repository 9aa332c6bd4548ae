"""Integration tests: the Stageflow inference-pipeline workload.

End-to-end on a live runtime: requests flow route → enrich → transform
through sharded pool routers and complete with sane latencies, every
balancing policy carries the pipeline, and seeded runs are
bit-identical.
"""

import hashlib

import pytest

from repro.actor.ids import ActorRef
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.workloads import stageflow
from repro.workloads.stageflow import StageflowConfig, StageflowWorkload, StageSpec

QUICK = StageflowConfig(base_rate=150.0)


@pytest.fixture(autouse=True)
def small_pipeline(monkeypatch):
    """Two pipeline drivers and two router shards per pool keep these
    runs quick."""
    monkeypatch.setattr(stageflow, "PIPELINES", 2)
    monkeypatch.setattr(stageflow, "ROUTER_SHARDS", 2)


def run_workload(config=QUICK, servers=3, seed=11, until=6.0):
    rt = ActorRuntime(ClusterConfig(num_servers=servers, processors=2,
                                    seed=seed))
    workload = StageflowWorkload(rt, config).start()
    rt.run(until=until)
    return rt, workload


# ----------------------------------------------------------------------
def test_pipeline_completes_requests_with_sane_latency():
    rt, workload = run_workload()
    assert workload.issued > 500
    assert workload.completed > 500
    assert workload.failed == 0
    # Latency floor: the sum of stage computes; ceiling: sanity only.
    floor = sum(s.compute for s in stageflow.STAGES)
    assert workload.latency.percentile(50.0) > floor
    assert workload.latency.percentile(99.0) < 1.0
    summary = workload.summary()
    assert summary["completed"] == workload.completed
    assert summary["latency_p99_ms"] > 0


def test_every_stage_pool_carries_traffic():
    rt, workload = run_workload()
    for pool in workload.pools:
        routed = 0
        for ref in pool.router_refs:
            silo = rt.silos[rt.locate(ref.id)]
            routed += silo.activations[ref.id].instance.routed
        assert routed >= workload.completed, (
            f"stage {pool.name!r} routed {routed} < {workload.completed}")


def test_heavy_requests_pay_the_heavy_path():
    config = StageflowConfig(base_rate=120.0, heavy_fraction=0.3)
    rt, workload = run_workload(config)
    assert workload.heavy_latency.count > 50
    # The enrich heavy path is 6.7x the light one; the medians must
    # separate even under queueing noise.
    assert (workload.heavy_latency.percentile(50.0)
            > workload.latency.percentile(50.0))
    # Heavy workers actually ran (not just the light 'handle' method).
    heavy_handled = 0
    for i in range(workload.pools[1].replicas):
        ref = ActorRef(workload.pools[1].worker_type, i)
        location = rt.locate(ref.id)
        if location is not None:
            instance = rt.silos[location].activations[ref.id].instance
            heavy_handled += instance.handled_heavy
    assert heavy_handled > 50


def test_all_policies_complete_the_pipeline():
    for policy in ("round_robin", "least_outstanding", "dpa"):
        config = StageflowConfig(base_rate=100.0, policy=policy)
        _, workload = run_workload(config, until=4.0)
        assert workload.completed > 200, policy
        assert workload.failed == 0, policy


# ----------------------------------------------------------------------
def test_stage_spec_validation():
    for bad in (dict(compute=0.0), dict(compute=1e-3, heavy_compute=0.0),
                dict(compute=1e-3, replicas=0)):
        try:
            StageSpec("bad", **bad)
        except ValueError:
            continue
        raise AssertionError(f"StageSpec accepted {bad}")


# ----------------------------------------------------------------------
def _digest(seed):
    rt = ActorRuntime(ClusterConfig(num_servers=3, processors=2,
                                    seed=seed))
    workload = StageflowWorkload(rt, QUICK).start()
    digest = hashlib.sha256()
    sim = rt.sim
    while sim.now < 5.0 and sim.step():
        digest.update(repr(sim.now).encode())
    return digest.hexdigest(), workload.summary()


def test_workload_is_seeded_deterministic():
    assert _digest(21) == _digest(21)
    digest_a, _ = _digest(21)
    digest_b, _ = _digest(22)
    assert digest_a != digest_b
