"""Integration tests: placement policies, local/remote paths, migration.

The migration cases take the backend as an argument: each runs on the
simulator under its own name and, through
``test_migration_case_on_the_asyncio_runtime``, on the real runtime —
``migrate``, the location-cache hints and re-driving are the core's, so
both drivers must land the actor on the same silo.
"""

from contextlib import contextmanager

import pytest

from repro.actor.actor import Actor
from repro.actor.calls import Call, Sleep
from repro.actor.placement import HashPlacement, PreferLocalPlacement
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.cluster import build_cluster


class Pinger(Actor):
    def ping(self, target):
        reply = yield Call(target, "pong")
        return reply


class Ponger(Actor):
    def pong(self):
        return "pong"


def make_runtime(servers=2, seed=0):
    rt = ActorRuntime(ClusterConfig(num_servers=servers, seed=seed))
    rt.register_actor("pinger", Pinger)
    rt.register_actor("ponger", Ponger)
    return rt


def place(rt, ref, server):
    """Deterministically activate ref on a chosen server."""
    rt.activate(ref.id, server)


class Napping(Actor):
    """Busy for real on either engine: a turn parked at ``Sleep``."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def work(self):
        self.calls += 1
        count = self.calls
        yield Sleep(0.05)
        return count


@contextmanager
def running(backend, servers=2):
    cluster = build_cluster(ClusterConfig(num_servers=servers, seed=0),
                            backend=backend)
    rt = cluster.runtime
    rt.register_actor("pinger", Pinger)
    rt.register_actor("ponger", Ponger)
    rt.register_actor("napping", Napping)
    with cluster:
        cluster.start()
        yield cluster, rt


def test_local_call_does_not_touch_network_counters():
    rt = make_runtime()
    ping, pong = rt.ref("pinger", 1), rt.ref("ponger", 1)
    place(rt, ping, 0)
    place(rt, pong, 0)
    rt.client_request(ping, "ping", pong)
    rt.run(until=1.0)
    assert rt.msgs_local == 2   # call + response
    assert rt.msgs_remote == 0


def test_remote_call_counts_and_pays_serialization():
    rt = make_runtime()
    ping, pong = rt.ref("pinger", 1), rt.ref("ponger", 1)
    place(rt, ping, 0)
    place(rt, pong, 1)
    rt.client_request(ping, "ping", pong)
    rt.run(until=1.0)
    assert rt.msgs_remote == 2
    assert rt.msgs_local == 0
    assert rt.silos[0].server_sender.stats.completions >= 1
    assert rt.silos[1].receiver.stats.completions >= 1


def test_prefer_local_places_at_caller():
    rt = make_runtime(servers=4)
    rt.set_placement(PreferLocalPlacement())
    ping, pong = rt.ref("pinger", 1), rt.ref("ponger", 1)
    place(rt, ping, 2)
    rt.client_request(ping, "ping", pong)
    rt.run(until=1.0)
    assert rt.locate(pong.id) == 2


def test_hash_placement_deterministic():
    rt1 = make_runtime(servers=5, seed=1)
    rt1.set_placement(HashPlacement())
    rt2 = make_runtime(servers=5, seed=99)
    rt2.set_placement(HashPlacement())
    for rt in (rt1, rt2):
        rt.client_request(rt.ref("ponger", "stable-key"), "pong")
        rt.run(until=1.0)
    assert rt1.locate(rt1.ref("ponger", "stable-key").id) == rt2.locate(
        rt2.ref("ponger", "stable-key").id
    )


def test_migration_moves_actor_and_hints_caches():
    rt = make_runtime()
    pong = rt.ref("ponger", 1)
    place(rt, pong, 0)
    assert rt.silos[0].migrate(pong.id, destination=1)
    rt.run(until=0.5)
    # Quiescent actor deactivates immediately; directory entry removed.
    assert rt.locate(pong.id) is None
    assert rt.silos[0].location_cache.get(pong.id) == 1
    assert rt.silos[1].location_cache.get(pong.id) == 1
    assert rt.migrations_total == 1


def test_next_message_lands_on_hinted_server(backend="sim"):
    with running(backend) as (cluster, rt):
        ping, pong = rt.ref("pinger", 1), rt.ref("ponger", 1)
        place(rt, ping, 1)
        place(rt, pong, 0)
        rt.silos[0].migrate(pong.id, destination=1)
        cluster.run()
        # Next call comes from silo 1, which has the hint.
        rt.client_request(ping, "ping", pong)
        cluster.run()
        assert rt.locate(pong.id) == 1
        assert rt.silos[1].placements_hinted == 1


def test_third_party_caller_places_at_itself_without_hint(backend="sim"):
    """§4.3: if the next message comes from a server with no cached
    location, the actor is placed on the server that originated the call."""
    with running(backend, servers=3) as (cluster, rt):
        ping, pong = rt.ref("pinger", 1), rt.ref("ponger", 1)
        place(rt, ping, 2)     # a third server: has no hint
        place(rt, pong, 0)
        rt.silos[0].migrate(pong.id, destination=1)
        cluster.run()
        rt.client_request(ping, "ping", pong)
        cluster.run()
        assert rt.locate(pong.id) == 2  # placed at the caller's server
        assert rt.silos[2].placements_at_caller == 1


def test_migrate_busy_actor_waits_for_quiescence(backend="sim"):
    with running(backend) as (cluster, rt):
        slow = rt.ref("napping", 1)
        place(rt, slow, 0)
        results = []
        rt.client_request(slow, "work",
                          on_complete=lambda lat, res: results.append(res))
        cluster.run(until=rt.sim.now + 0.02)  # the turn is parked mid-way
        assert rt.silos[0].migrate(slow.id, destination=1)
        assert slow.id in rt.silos[0].activations  # still draining
        cluster.run()
        assert results == [1]
        assert slow.id not in rt.silos[0].activations
        assert rt.migrations_total == 1
        rt.client_request(slow, "work",
                          on_complete=lambda lat, res: results.append(res))
        cluster.run()
        assert results == [1, 2]  # state carried over


def test_messages_arriving_during_deactivation_are_redelivered(backend="sim"):
    with running(backend) as (cluster, rt):
        busy = rt.ref("napping", 1)
        place(rt, busy, 0)
        results = []
        rt.client_request(busy, "work",
                          on_complete=lambda lat, res: results.append(res))
        cluster.run(until=rt.sim.now + 0.02)
        rt.silos[0].migrate(busy.id, destination=1)
        # A second request arrives while the actor is deactivating.
        rt.client_request(busy, "work",
                          on_complete=lambda lat, res: results.append(res))
        cluster.run()
        assert sorted(results) == [1, 2]  # both served; state carried over
        assert rt.locate(busy.id) is None and rt.migrations_total == 1


@pytest.mark.parametrize("case", [
    test_next_message_lands_on_hinted_server,
    test_third_party_caller_places_at_itself_without_hint,
    test_migrate_busy_actor_waits_for_quiescence,
    test_messages_arriving_during_deactivation_are_redelivered,
], ids=lambda case: case.__name__.removeprefix("test_"))
def test_migration_case_on_the_asyncio_runtime(case):
    case("asyncio")


def test_migrate_returns_false_for_unknown_or_self():
    rt = make_runtime()
    pong = rt.ref("ponger", 1)
    assert not rt.silos[0].migrate(pong.id, destination=1)  # not hosted
    place(rt, pong, 0)
    assert not rt.silos[0].migrate(pong.id, destination=0)  # self move


def test_forwarding_after_external_replacement():
    """Message sent to the old host after the actor re-placed elsewhere
    must be forwarded, not dropped."""
    rt = make_runtime(servers=3)
    pong = rt.ref("ponger", 1)
    place(rt, pong, 0)
    rt.silos[0].migrate(pong.id, destination=1)
    rt.run(until=0.2)
    results = []
    rt.client_request(pong, "pong",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert results == ["pong"]
