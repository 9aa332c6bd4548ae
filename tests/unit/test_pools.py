"""Unit tests: balancing policies and the router/pool machinery."""

import pytest

from repro.actor.actor import Actor
from repro.actor.errors import ActorError
from repro.actor.ids import ActorRef
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.pools import (
    ActorPool,
    DpaPolicy,
    LeastOutstandingPolicy,
    POLICIES,
    RoundRobinPolicy,
    make_policy,
)
from repro.pools import policy as policy_module


# ----------------------------------------------------------------------
# Policies in isolation (plain objects, no runtime).
# ----------------------------------------------------------------------
def test_round_robin_cycles_within_limit():
    p = RoundRobinPolicy()
    picks = [p.choose([0] * 4, [0.0] * 4, 4) for _ in range(8)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]
    # Shrinking the limit confines the cycle.
    picks = [p.choose([0] * 4, [0.0] * 4, 2) for _ in range(4)]
    assert sorted(set(picks)) == [0, 1]


def test_least_outstanding_picks_min():
    p = LeastOutstandingPolicy()
    assert p.choose([3, 0, 2], [0.0] * 3, 3) == 1
    assert p.choose([3, 5, 2], [0.0] * 3, 3) == 2


def test_least_outstanding_rotates_ties():
    """An all-idle pool must spread like round-robin, not dogpile the
    lowest index (every router shard runs this policy concurrently)."""
    p = LeastOutstandingPolicy()
    picks = [p.choose([0, 0, 0, 0], [0.0] * 4, 4) for _ in range(8)]
    assert sorted(set(picks)) == [0, 1, 2, 3]


def test_dpa_grows_when_no_idle_replica():
    p = DpaPolicy()
    assert p.active == 1
    # Active replica 0 is busy -> the window widens.
    p.choose([1, 0, 0, 0], [0.0] * 4, 4)
    assert p.active == 2
    assert p.grow_steps == 1


def test_dpa_shrinks_when_idle():
    p = DpaPolicy()
    p.active = 3
    for _ in range(4):
        p.choose([0, 0, 0, 0], [0.0] * 4, 4)
    assert p.active == 1
    assert p.shrink_steps >= 2
    # Never below the floor.
    p.choose([0, 0, 0, 0], [0.0] * 4, 4)
    assert p.active == 1


def test_dpa_scores_outstanding_plus_loads(monkeypatch):
    monkeypatch.setattr(policy_module, "MIN_ACTIVE", 4)
    p = DpaPolicy()
    # Replica 1 idle by counts but its silo reports heavy contention.
    idx = p.choose([1, 0, 1, 1], [0.0, 9.0, 0.0, 0.0], 4)
    assert idx != 1


def test_dpa_outstanding_scaled_by_shard_count(monkeypatch):
    """With S shards, this shard's in-flight slice is ~1/S of the global
    queue the loads signal reports — the score must compare like units."""
    monkeypatch.setattr(policy_module, "MIN_ACTIVE", 2)
    p = DpaPolicy()
    p.bind(0, 4)
    # 2 own in-flight toward replica 0 ~ 8 global; worse than load 5.
    assert p.choose([2, 0], [0.0, 5.0], 2) == 1
    # A shard-count of 1 flips the comparison.
    q = DpaPolicy()
    q.bind(0, 1)
    assert q.choose([2, 0], [0.0, 5.0], 2) == 0


def test_dpa_offset_spreads_shards():
    """Shard windows start at s/S around the ring, so consolidated
    low-load traffic from different shards lands on different replicas."""
    a, b = DpaPolicy(), DpaPolicy()
    a.bind(0, 2)
    b.bind(1, 2)
    assert a.choose([0] * 8, [0.0] * 8, 8) == 0
    assert b.choose([0] * 8, [0.0] * 8, 8) == 4


def test_make_policy_registry():
    for name in ("round_robin", "least_outstanding", "dpa"):
        assert name in POLICIES
        assert make_policy(name).name == name
    with pytest.raises(ValueError):
        make_policy("nope")


# ----------------------------------------------------------------------
# Router + pool on a live runtime.
# ----------------------------------------------------------------------
class Doubler(Actor):
    COMPUTE = {"handle": 1e-5}

    def __init__(self):
        super().__init__()
        self.handled = 0

    def handle(self, payload):
        self.handled += 1
        return payload * 2


def make_runtime(servers=3, seed=0):
    return ActorRuntime(ClusterConfig(num_servers=servers, seed=seed))


def route_one(rt, pool, payload, shard=0):
    results = []
    rt.client_request(pool.router_refs[shard % pool.shards], "route", payload,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=rt.sim.now + 2.0)
    assert results, "routed request never completed"
    return results[0]


def test_pool_routes_to_workers():
    rt = make_runtime()
    pool = ActorPool(rt, "double", Doubler, replicas=4).start()
    assert route_one(rt, pool, 21) == 42


def test_pool_deploys_replicas_round_robin_over_live_silos():
    rt = make_runtime(servers=3)
    pool = ActorPool(rt, "double", Doubler, replicas=6).start()
    locations = [rt.locate(ActorRef(pool.worker_type, i).id)
                 for i in range(6)]
    assert None not in locations
    per_silo = [locations.count(s) for s in range(3)]
    assert per_silo == [2, 2, 2]


def test_pool_shards_install_on_distinct_silos():
    rt = make_runtime(servers=3)
    pool = ActorPool(rt, "double", Doubler, replicas=3, policy="dpa",
                     shards=3).start()
    homes = {rt.locate(ref.id) for ref in pool.router_refs}
    assert homes == {0, 1, 2}
    # Each shard serves traffic independently.
    assert route_one(rt, pool, 1, shard=0) == 2
    assert route_one(rt, pool, 2, shard=1) == 4
    assert route_one(rt, pool, 3, shard=2) == 6


def test_unconfigured_router_raises():
    rt = make_runtime()
    rt.register_actor("bare.router",
                      __import__("repro.pools.router",
                                 fromlist=["RouterActor"]).RouterActor)
    results = []
    rt.client_request(rt.ref("bare.router", 0), "route", 1,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert isinstance(results[0], ActorError)


def test_pool_guards():
    rt = make_runtime()
    with pytest.raises(ValueError):
        ActorPool(rt, "p0", Doubler, replicas=0)
    with pytest.raises(ValueError):
        ActorPool(rt, "p1", Doubler, replicas=2, shards=0)
    with pytest.raises(ValueError):
        # A shared mutable policy instance across shards is a footgun.
        ActorPool(rt, "p2", Doubler, replicas=2, shards=2,
                  policy=RoundRobinPolicy())
    pool = ActorPool(rt, "p3", Doubler, replicas=2).start()
    with pytest.raises(RuntimeError):
        pool.start()


def test_report_loop_feeds_router_loads():
    rt = make_runtime(servers=2)
    pool = ActorPool(rt, "double", Doubler, replicas=2, policy="dpa",
                     report_period=0.2).start()
    rt.run(until=1.0)
    router = rt.silos[rt.locate(pool.router_ref.id)] \
        .activations[pool.router_ref.id].instance
    assert len(router.loads) == 2
    # Loads are contention-based: idle cluster reports ~zero, but the
    # reports have actually arrived (no exception, fresh list).
    assert all(load >= 0.0 for load in router.loads)
