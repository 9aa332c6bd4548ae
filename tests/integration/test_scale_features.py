"""Paper-scale workload switches: direct bootstrap, lazy idle pool,
state-discard deactivation, and ActorId interning."""

import hashlib

from repro.actor.ids import ActorId
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.workloads import halo
from repro.workloads.halo import HaloConfig, HaloWorkload


def _run(config_kwargs, players=400, horizon=3.0, seed=7, servers=4):
    rt = ActorRuntime(ClusterConfig(num_servers=servers, seed=seed))
    cfg = HaloConfig(target_players=players, pool_target=40,
                     request_rate=200.0, **config_kwargs)
    wl = HaloWorkload(rt, cfg)
    wl.start()
    sim = rt.sim
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    return rt, wl, digest.hexdigest()


def test_direct_bootstrap_reaches_steady_state_without_messages():
    rt, wl, _ = _run({"direct_bootstrap": True}, horizon=0.0)
    # Bootstrap happened entirely without events: games installed, rosters
    # wired, players placed — and nothing on the queue but the schedulers.
    assert wl.games_started > 30
    assert wl.population == 400
    assert rt.sim.events_processed == 0
    total = sum(len(s.activations) for s in rt.silos)
    assert total == wl.games_started * 8 + wl.games_started
    # Rosters are wired exactly as a start_game message would have left them.
    for gid, members in list(wl.active_games.items())[:5]:
        game_loc = rt.locate(rt.ref("game", gid).id)
        game = rt.silos[game_loc].activations[rt.ref("game", gid).id].instance
        assert [r.key for r in game.members] == members
        for pid in members:
            loc = rt.locate(rt.ref("player", pid).id)
            player = rt.silos[loc].activations[rt.ref("player", pid).id].instance
            assert player.game.id == rt.ref("game", gid).id


def test_direct_bootstrap_run_is_deterministic():
    _, wl_a, digest_a = _run({"direct_bootstrap": True})
    _, wl_b, digest_b = _run({"direct_bootstrap": True})
    assert digest_a == digest_b
    assert wl_a.games_started == wl_b.games_started
    assert wl_a.requests_issued == wl_b.requests_issued


def test_direct_bootstrap_serves_requests():
    rt, wl, _ = _run({"direct_bootstrap": True})
    assert wl.requests_issued > 0
    assert rt.requests_completed > 0


def test_lazy_idle_pool_short_circuits_idle_probes():
    rt, wl, _ = _run({"direct_bootstrap": True, "lazy_idle_pool": True},
                     horizon=5.0)
    # Never-matched pool players never activate: idle status probes are
    # answered by the workload, so a player activation implies the
    # player is in (or has been through) a game.
    assert wl.idle_short_circuits > 0
    for silo in rt.silos:
        for actor_id in silo.activations:
            if actor_id.actor_type == "player":
                pid = actor_id.key
                assert pid in wl.playing or wl.games_played[pid] > 0
    # The RNG draw sequence is shared with the eager mode, so the lazy
    # switch must not change which players get probed — only whether an
    # idle probe turns into cluster traffic.
    rt_eager, wl_eager, _ = _run({"direct_bootstrap": True}, horizon=5.0)
    assert (wl.requests_issued + wl.idle_short_circuits
            >= wl_eager.requests_issued)


def test_discard_departed_keeps_storage_empty(monkeypatch):
    monkeypatch.setattr(halo, "GAMES_PER_PLAYER", (1, 1))
    rt, wl, _ = _run({"direct_bootstrap": True, "game_duration": (0.5, 1.0)},
                     horizon=6.0)
    assert wl.players_departed > 0
    # Departed players' and closed games' state was dropped, not persisted.
    for pid in range(len(wl._live_index)):
        if wl._live_index[pid] < 0:
            assert rt.ref("player", pid).id not in rt.storage
    assert all(aid.actor_type != "game" or aid.key in wl.active_games
               for aid in rt.storage)
    assert len(rt.discarded) > 0


def test_discarded_actor_revives_fresh_and_placeable():
    rt = ActorRuntime(ClusterConfig(num_servers=3, seed=2))
    from repro.workloads.halo import GameActor, PlayerActor

    rt.register_actor("player", PlayerActor)
    rt.register_actor("game", GameActor)
    ref = rt.ref("player", 99)
    rt.activate(ref.id, 1)
    rt.deactivate(ref.id, discard_state=True)
    assert ref.id not in rt.storage
    assert ref.id in rt.discarded
    # A late message revives it as a fresh instance (virtual-actor
    # contract) instead of crashing on missing state.
    done = []
    rt.client_request(ref, "request_status", 1,
                      on_complete=lambda lat, res: done.append(res))
    rt.run(until=2.0)
    assert done == [{"state": "idle"}]


def test_actor_ids_are_interned_and_order_like_their_pairs():
    a = ActorId("player", 123456)
    b = ActorId("player", 123456)
    assert a is b and a == b
    assert a != ActorId("player", 123457)
    assert hash(a) == hash(b) == hash(ActorId("player", 123456))
    assert ActorId("a", 1) < ActorId("b", 0) < ActorId("b", 1)


def test_interned_ids_share_one_object_across_refs():
    rt = ActorRuntime(ClusterConfig(num_servers=2, seed=0))
    from repro.workloads.halo import PlayerActor

    rt.register_actor("player", PlayerActor)
    assert rt.ref("player", 7).id is rt.ref("player", 7).id
