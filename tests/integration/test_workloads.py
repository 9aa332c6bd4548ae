"""Integration tests: the three paper workloads drive the cluster correctly."""

import pytest

from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.workloads import counter, halo, heartbeat
from repro.workloads.counter import CounterConfig, CounterWorkload
from repro.workloads.halo import HaloConfig, HaloWorkload
from repro.workloads.heartbeat import HeartbeatConfig, HeartbeatWorkload


@pytest.fixture(autouse=True)
def fast_matchmaking(monkeypatch):
    """Every Halo run here matches players every half second."""
    monkeypatch.setattr(halo, "MATCHMAKING_PERIOD", 0.5)


def test_counter_requests_complete_and_increment(monkeypatch):
    monkeypatch.setattr(counter, "NUM_ACTORS", 50)
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=0))
    w = CounterWorkload(rt, CounterConfig(request_rate=500.0))
    w.start()
    rt.run(until=2.0)
    w.stop()
    rt.run(until=3.0)
    assert rt.requests_completed > 500
    assert rt.requests_completed <= w.requests_issued
    # counters are pure client traffic: no actor-to-actor messages
    assert rt.msgs_local == 0 and rt.msgs_remote == 0


def test_heartbeat_mixes_beats_and_reads(monkeypatch):
    monkeypatch.setattr(heartbeat, "STATUS_FRACTION", 0.25)
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=1))
    w = HeartbeatWorkload(
        rt, HeartbeatConfig(num_monitors=40, request_rate=400.0)
    )
    w.start()
    rt.run(until=3.0)
    assert rt.requests_completed > 800


def test_heartbeat_blocking_variant_registers_wait():
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=1))
    w = HeartbeatWorkload(
        rt, HeartbeatConfig(num_monitors=10, request_rate=100.0, io_wait=0.002)
    )
    cls = rt.actor_types["heartbeat"]
    assert cls.WAIT["beat"] == 0.002
    w.start()
    rt.run(until=1.0)
    assert rt.requests_completed > 20


def halo_runtime(servers=4, seed=2, **cfg):
    rt = ActorRuntime(ClusterConfig(num_servers=servers, seed=seed))
    defaults = dict(target_players=160, pool_target=16, request_rate=40.0,
                    game_duration=(10.0, 15.0))
    defaults.update(cfg)
    w = HaloWorkload(rt, HaloConfig(**defaults))
    return rt, w


def test_halo_bootstrap_population_and_games():
    rt, w = halo_runtime()
    w.start()
    rt.run(until=1.0)
    assert w.population == pytest.approx(160, abs=10)
    assert w.games_started >= (160 - 16) // 8
    assert len(w.idle_pool) <= 16 + 8


def test_halo_fanout_message_arithmetic():
    """One status request to an in-game player must generate 18
    actor-to-actor messages (1+1 to the game, 8+8 broadcast) — §3."""
    rt, w = halo_runtime(servers=4)
    w.start()
    rt.run(until=2.0)  # bootstrap settles, join traffic drains
    w.stop()
    rt.run(until=4.0)
    base = rt.msgs_local + rt.msgs_remote
    # pick a player who is currently in a game
    playing = w.in_game.index(1)
    rt.client_request(rt.ref(w.PLAYER, playing), "request_status", 0)
    rt.run(until=6.0)
    assert (rt.msgs_local + rt.msgs_remote) - base == 18


def test_halo_idle_player_answers_directly():
    rt, w = halo_runtime()
    w.start()
    rt.run(until=2.0)
    w.stop()
    rt.run(until=4.0)
    assert w.idle_pool, "bootstrap keeps a nonempty idle pool"
    idle = w.idle_pool[0]
    results = []
    rt.client_request(rt.ref(w.PLAYER, idle), "request_status", 0,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=6.0)
    assert results == [{"state": "idle"}]


def test_halo_games_end_and_players_rotate():
    rt, w = halo_runtime(game_duration=(2.0, 3.0))
    w.start()
    rt.run(until=20.0)
    assert w.players_departed > 0
    # departed players' actors were idle-collected
    census_total = sum(rt.census().values())
    live_actors = w.population + len(w.active_games)
    assert census_total == pytest.approx(live_actors, rel=0.25)


def test_halo_population_steady_state():
    rt, w = halo_runtime(game_duration=(2.0, 3.0))
    w.start()
    rt.run(until=30.0)
    assert w.population == pytest.approx(160, rel=0.35)


def test_halo_arrival_rate_formula():
    rt, w = halo_runtime()
    # 160 players / (4 games * 12.5 s avg) = 3.2 arrivals/s
    assert w.arrival_rate() == pytest.approx(160 / (4 * 12.5))
