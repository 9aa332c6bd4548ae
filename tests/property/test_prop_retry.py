"""Property tests: retry under a lossy link, per the resilience contract.

For any seed, drop probability, and retry budget: every request
*resolves* — it either delivers or exhausts its budget into a terminal
timeout, never hangs — and the whole run is deterministic per seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actor.actor import Actor
from repro.actor.runtime import ClusterConfig
from repro.cluster import build_cluster
from repro.faults import FaultPlan, ResilienceConfig, RetryPolicy
from repro.faults import resilience as backoff


class Echo(Actor):
    COMPUTE = {"ping": 1e-4}

    def ping(self):
        return "pong"


def _run(seed: int, drop: float, attempts: int, requests: int):
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=seed),
        resilience=ResilienceConfig(
            call_timeout=0.05,
            retry=RetryPolicy(max_attempts=attempts)),
        faults=FaultPlan().degrade(0.0, 1_000.0, drop=drop),
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    outcomes = []
    for i in range(requests):
        ref = rt.ref("echo", i)
        rt.sim.schedule(0.01 + 0.05 * i, lambda ref=ref: rt.client_request(
            ref, "ping",
            on_complete=lambda lat, res: outcomes.append(
                "ok" if res == "pong" else "timeout")))
    cluster.start()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backoff, "BASE_DELAY", 0.02)
        rt.run(until=10.0)
    return outcomes, rt


@st.composite
def scenarios(draw):
    return (
        draw(st.integers(min_value=0, max_value=2**16)),
        draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0])),
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=1, max_value=6)),
    )


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_every_request_delivers_or_exhausts(scenario):
    seed, drop, attempts, requests = scenario
    outcomes, rt = _run(seed, drop, attempts, requests)
    # Resolution: every request came back, one way or the other.
    assert len(outcomes) == requests
    assert rt.requests_completed + rt.requests_timed_out == requests
    assert rt.inflight_requests == 0
    # The budget bounds the retry storm.
    assert rt.request_retries <= requests * (attempts - 1)
    if drop == 0.0:
        assert outcomes == ["ok"] * requests
        assert rt.request_retries == 0
    if drop == 1.0:
        assert outcomes == ["timeout"] * requests


@given(scenarios())
@settings(max_examples=10, deadline=None)
def test_retry_runs_are_deterministic(scenario):
    seed, drop, attempts, requests = scenario
    outcomes_a, rt_a = _run(seed, drop, attempts, requests)
    outcomes_b, rt_b = _run(seed, drop, attempts, requests)
    assert outcomes_a == outcomes_b
    assert rt_a.request_retries == rt_b.request_retries
    assert rt_a.requests_timed_out == rt_b.requests_timed_out
    assert rt_a.sim.events_processed == rt_b.sim.events_processed
    assert sorted(rt_a.client_latency._samples) == \
        sorted(rt_b.client_latency._samples)
