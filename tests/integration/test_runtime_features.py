"""Integration tests: admission control, time scaling, samplers, ActOp facade."""

import pytest

from repro.actor.actor import Actor
from repro.actor.errors import RequestShed
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.faults.resilience import AdmissionConfig, ResilienceConfig
from repro.bench.sampler import ClusterSampler
from repro.core.actop import ActOp, ActOpConfig, ThreadControllerConfig
from repro.core.partitioning.coordinator import PartitioningConfig
from repro.workloads.heartbeat import HeartbeatConfig, HeartbeatWorkload


class Sluggish(Actor):
    COMPUTE = {"work": 0.01}

    def work(self):
        return 1


def test_receiver_queue_bound_rejects_overload():
    rt = ActorRuntime(
        ClusterConfig(num_servers=1, seed=0),
        resilience=ResilienceConfig(admission=AdmissionConfig(receiver_queue=5)))
    rt.register_actor("slug", Sluggish)
    # 200 near-simultaneous requests into a server that can do ~800/s.
    for i in range(200):
        rt.client_request(rt.ref("slug", i % 3), "work")
    rt.run(until=5.0)
    assert rt.rejected_requests > 0
    assert rt.requests_completed + rt.rejected_requests == 200
    assert rt.requests_completed > 0


def test_receiver_queue_rejection_ends_its_request():
    """A receiver-queue rejection is the request's one outcome: its
    completion hook fires with RequestShed, and it leaves the admission
    window, so the window does not shed later requests to an idle
    cluster."""
    rt = ActorRuntime(
        ClusterConfig(num_servers=1, seed=0),
        resilience=ResilienceConfig(admission=AdmissionConfig(
            receiver_queue=5, capacity=150, policy="reject")))
    rt.register_actor("slug", Sluggish)
    results = []
    for i in range(200):
        rt.client_request(rt.ref("slug", i % 3), "work",
                          on_complete=lambda latency, r: results.append(r))
    rt.run()
    shed = [r for r in results if isinstance(r, RequestShed)]
    assert len(results) == 200
    assert {r.policy for r in shed} == {"reject", "receiver_queue"}
    receiver = [r for r in shed if r.policy == "receiver_queue"]
    assert len(receiver) == rt.rejected_requests > 0
    assert len(shed) - len(receiver) == rt.requests_shed
    assert rt.requests_completed + len(shed) == 200
    assert rt.inflight_requests == 0

    completed = rt.requests_completed
    for i in range(100):   # the idle cluster admits every one of them
        rt.client_request(rt.ref("slug", i % 3), "work")
        rt.run()
    assert rt.requests_completed == completed + 100


def test_no_rejection_without_bound():
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=0))
    rt.register_actor("slug", Sluggish)
    for i in range(200):
        rt.client_request(rt.ref("slug", i % 3), "work")
    rt.run(until=60.0)
    assert rt.rejected_requests == 0
    assert rt.requests_completed == 200


def test_time_scale_preserves_utilization_and_shape():
    """The scaling trick: costs x s, rates / s -> same utilization, and
    latencies scale by exactly s (up to stochastic noise)."""

    def run(scale):
        rt = ActorRuntime(ClusterConfig(num_servers=1, seed=5,
                                        time_scale=scale))
        w = HeartbeatWorkload(rt, HeartbeatConfig(
            num_monitors=200, request_rate=2000.0 / scale))
        w.start()
        busy0, t0 = rt.cpu_busy_snapshot(), rt.sim.now
        rt.run(until=20.0 * scale)
        util = rt.mean_cpu_utilization(busy0, t0)
        return util, rt.client_latency.median / scale

    util1, med1 = run(1.0)
    util4, med4 = run(4.0)
    assert util4 == pytest.approx(util1, rel=0.1)
    assert med4 == pytest.approx(med1, rel=0.15)


def test_cluster_sampler_records_all_series():
    rt = ActorRuntime(ClusterConfig(num_servers=2, seed=1))
    rt.register_actor("slug", Sluggish)
    sampler = ClusterSampler(rt, period=1.0)
    sampler.start()
    for i in range(50):
        rt.client_request(rt.ref("slug", i), "work")
    rt.run(until=5.5)
    sampler.stop()
    assert len(sampler.remote_share) == 5
    assert len(sampler.cpu_utilization) == 5
    assert len(sampler.imbalance) == 5
    assert max(sampler.cpu_utilization.values) > 0


def test_sampler_period_validation():
    rt = ActorRuntime(ClusterConfig(num_servers=1))
    with pytest.raises(ValueError):
        ClusterSampler(rt, period=0.0)


def test_actop_requires_at_least_one_optimization():
    rt = ActorRuntime(ClusterConfig(num_servers=2))
    with pytest.raises(ValueError):
        ActOp(rt)


def test_actop_builds_agents_and_controllers():
    rt = ActorRuntime(ClusterConfig(num_servers=3))
    actop = ActOp(rt, ActOpConfig(
        partitioning=PartitioningConfig(),
        thread_allocation=ThreadControllerConfig()))
    assert len(actop.agents) == 3
    assert len(actop.controllers) == 3
    # peer maps are complete and shared
    assert set(actop.agents[0].peers) == {0, 1, 2}
    actop.start()
    rt.run(until=1.0)
    actop.stop()


def test_actop_partitioning_only():
    rt = ActorRuntime(ClusterConfig(num_servers=2))
    actop = ActOp(rt, ActOpConfig(partitioning=PartitioningConfig()))
    assert actop.agents and not actop.controllers


def test_invalid_cluster_configs():
    with pytest.raises(ValueError):
        ActorRuntime(ClusterConfig(num_servers=0))
    with pytest.raises(ValueError):
        ActorRuntime(ClusterConfig(time_scale=0.0))
