"""Halo Presence (§3, §6.1) — the paper's flagship workload.

Two actor types:

* **Player** — holds a reference to its current game.  A client status
  request hits a player; the player forwards to its game, which
  broadcasts to all members and aggregates the replies — so one client
  request fans out into 1 + 1 + 8 + 8 = 18 actor-to-actor messages
  (with the paper's 8 players per game), exactly the §3 arithmetic.
* **Game** — the chat-room-like hub holding its member list.

The driver reproduces §6.1's generative churn model:

* new players arrive Poisson and enter a pool of idle players;
* matchmaking repeatedly (every :data:`MATCHMAKING_PERIOD`) draws
  :data:`PLAYERS_PER_GAME` players at random from the pool whenever it
  holds more than ``pool_target``;
* game durations are uniform in ``game_duration``;
* a player plays a uniform integer in :data:`GAMES_PER_PLAYER` games and
  then leaves the system (its actor is idle-collected);
* clients issue status requests about random live players at
  ``request_rate``.

Paper-scale values (100K players, 1000-player pool, 20–30-minute games,
6K req/s) are impractical for an in-process DES, so the defaults are a
documented scale-down with the same *ratios*: ~1% of the communication
graph churning per simulated minute once durations are compressed, and a
request rate chosen to land at the same per-server CPU utilization.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Optional

from ..actor.actor import Actor
from ..actor.calls import All, Call
from ..actor.ids import ActorRef
from ..actor.runtime import ActorRuntime

__all__ = ["PlayerActor", "GameActor", "HaloConfig", "HaloWorkload"]

PLAYERS_PER_GAME = 8            # paper: 8
GAMES_PER_PLAYER = (3, 5)       # paper: 3-5, uniform
MATCHMAKING_PERIOD = 1.0        # seconds between matchmaking passes
REQUEST_SIZE = 256              # bytes of a client status request
RESPONSE_SIZE = 128             # bytes of its response


class PlayerActor(Actor):
    """A live player; belongs to at most one game at a time."""

    COMPUTE = {
        "request_status": 40e-6,
        "update": 25e-6,
        "join_game": 20e-6,
        "leave_game": 20e-6,
    }

    def __init__(self) -> None:
        super().__init__()
        self.game: Optional[ActorRef] = None
        self.updates_seen = 0

    def join_game(self, game_ref: ActorRef) -> bool:
        self.game = game_ref
        return True

    def leave_game(self) -> bool:
        self.game = None
        return True

    def update(self, payload: object) -> int:
        """Receive one broadcast event from the game.

        Safe to replay: ``updates_seen`` is a liveness diagnostic, never
        read back as an exact count, so a retried broadcast converges.
        """
        self.updates_seen += 1
        return 1

    def request_status(self, payload: object):
        """Client entry point: report status via the game fan-out."""
        if self.game is None:
            return {"state": "idle"}
        acks = yield Call(self.game, "broadcast_status", payload,
                          size=256, response_size=64)
        return {"state": "playing", "acks": acks}


class GameActor(Actor):
    """A game session: the hub of its members' communication."""

    COMPUTE = {
        "start_game": 30e-6,
        "broadcast_status": 50e-6,
        "end_game": 30e-6,
    }

    def __init__(self) -> None:
        super().__init__()
        self.members: list[ActorRef] = []

    def start_game(self, members: tuple[ActorRef, ...]):
        """Install the roster and notify every member (actor-to-actor)."""
        self.members = list(members)
        yield All([
            Call(p, "join_game", self.self_ref(), size=128, response_size=32)
            for p in self.members
        ])
        return True

    def broadcast_status(self, payload: object):
        """Fan the event out to every member and count the acks."""
        if not self.members:
            return 0
        acks = yield All([
            Call(p, "update", payload, size=256, response_size=32)
            for p in self.members
        ])
        return sum(acks)

    def end_game(self):
        """Release every member, then dissolve."""
        if self.members:
            yield All([
                Call(p, "leave_game", size=64, response_size=32)
                for p in self.members
            ])
        self.members = []
        return True


@dataclass
class HaloConfig:
    """Workload shape.

    Paper values in comments; defaults are the documented scale-down
    used by the benches (override freely).  The game size, games per
    player, matchmaking period and message sizes are the module's
    constants.
    """

    target_players: int = 2_000          # paper: 100_000
    pool_target: int = 40                # paper: 1_000 idle players
    game_duration: tuple[float, float] = (60.0, 90.0)   # paper: 1200-1800 s
    request_rate: float = 120.0          # paper: 2_000-6_000 req/s
    # Paper-scale switches (defaults preserve the original message-driven
    # behavior bit for bit; the scale benches flip them):
    direct_bootstrap: bool = False       # install bootstrap games without messages
    lazy_idle_pool: bool = False         # pooled players cost O(bytes), not O(activation)


class HaloWorkload:
    """Drives Halo Presence against a cluster, with §6.1's churn model."""

    PLAYER = "player"
    GAME = "game"

    def __init__(self, runtime: ActorRuntime, config: Optional[HaloConfig] = None):
        self.runtime = runtime
        self.config = config or HaloConfig()
        if self.PLAYER not in runtime.actor_types:
            runtime.register_actor(self.PLAYER, PlayerActor)
            runtime.register_actor(self.GAME, GameActor)
        rng = runtime.rng
        self._arrival_rng = rng.stream("halo.arrivals")
        self._match_rng = rng.stream("halo.matchmaking")
        self._request_rng = rng.stream("halo.requests")
        self._player_ids = itertools.count()
        self._game_ids = itertools.count()

        self.idle_pool: list[int] = []
        # Struct-of-arrays player bookkeeping, indexed by pid (pids are
        # dense sequential ints): a million players cost ~14 bytes each
        # here instead of a set entry and three dict entries apiece.
        self.in_game = bytearray()            # 1 while the player is in a game
        self.games_played: array = array("i")
        self.quota: array = array("b")
        self._live_index: array = array("l")  # pid -> live_players slot, -1 = departed
        self.live_players: list[int] = []   # sampled for status requests
        self.active_games: dict[int, list[int]] = {}
        self.requests_issued = 0
        self.games_started = 0
        self.players_departed = 0
        self.idle_short_circuits = 0        # lazy_idle_pool: requests answered locally
        self._running = False

    # ------------------------------------------------------------------
    # Population bookkeeping
    # ------------------------------------------------------------------
    def _mean_session_seconds(self) -> float:
        games = sum(GAMES_PER_PLAYER) / 2
        duration = sum(self.config.game_duration) / 2
        return games * duration

    def arrival_rate(self) -> float:
        """Poisson arrival rate that sustains ``target_players`` (§6.1)."""
        return self.config.target_players / self._mean_session_seconds()

    def _add_player(self) -> int:
        pid = next(self._player_ids)
        self.in_game.append(0)
        self.games_played.append(0)
        self.quota.append(self._match_rng.randint(*GAMES_PER_PLAYER))
        self.idle_pool.append(pid)
        self._live_index.append(len(self.live_players))
        self.live_players.append(pid)
        return pid

    def _remove_player(self, pid: int) -> None:
        # O(1) removal: swap with the last live player.
        idx = self._live_index[pid]
        self._live_index[pid] = -1
        last = self.live_players.pop()
        if last != pid:
            self.live_players[idx] = last
            self._live_index[last] = idx
        self.players_departed += 1
        self.runtime.deactivate(self.runtime.ref(self.PLAYER, pid),
                                discard_state=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._bootstrap()
        self._schedule_arrival()
        self.runtime.sim.schedule(MATCHMAKING_PERIOD, self._matchmaking_tick)
        self._schedule_request()

    def stop(self) -> None:
        self._running = False

    def _bootstrap(self) -> None:
        """Start at steady state: a full population, most of it in games
        whose remaining durations are uniform (stationary residuals)."""
        for _ in range(self.config.target_players):
            self._add_player()
        # Form games out of everyone beyond the idle-pool target.
        while len(self.idle_pool) >= self.config.pool_target + PLAYERS_PER_GAME:
            if self.config.direct_bootstrap:
                self._install_game()
            else:
                self._start_game(bootstrap=True)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _schedule_arrival(self) -> None:
        if not self._running:
            return
        gap = self._arrival_rng.expovariate(self.arrival_rate())
        self.runtime.sim.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        if not self._running:
            return
        self._add_player()
        self._schedule_arrival()

    # ------------------------------------------------------------------
    # Matchmaking and game lifecycle
    # ------------------------------------------------------------------
    def _matchmaking_tick(self) -> None:
        if not self._running:
            return
        while len(self.idle_pool) >= self.config.pool_target + PLAYERS_PER_GAME:
            self._start_game()
        self.runtime.sim.schedule(MATCHMAKING_PERIOD, self._matchmaking_tick)

    def _draw_members(self) -> list[int]:
        members = []
        for _ in range(PLAYERS_PER_GAME):
            idx = self._match_rng.randrange(len(self.idle_pool))
            self.idle_pool[idx], self.idle_pool[-1] = (
                self.idle_pool[-1],
                self.idle_pool[idx],
            )
            pid = self.idle_pool.pop()
            self.in_game[pid] = 1
            members.append(pid)
        return members

    def _start_game(self, bootstrap: bool = False) -> None:
        members = self._draw_members()
        gid = next(self._game_ids)
        self.active_games[gid] = members
        self.games_started += 1
        game_ref = self.runtime.ref(self.GAME, gid)
        refs = tuple(self.runtime.ref(self.PLAYER, pid) for pid in members)
        self.runtime.client_request(game_ref, "start_game", refs,
                                    size=256, response_size=32)
        lo, hi = self.config.game_duration
        duration = self._match_rng.uniform(lo, hi)
        if bootstrap:
            # Stationary residual lifetime: the game is already underway.
            duration *= self._match_rng.random()
        self.runtime.sim.defer(duration, self._end_game, gid)

    def _install_game(self) -> None:
        """Bootstrap a game *directly*: place and host the game and its
        members, wire the refs, and schedule the residual duration — no
        messages.  A 10^6-player bootstrap through ``_start_game`` would
        put ~10^5 simultaneous ``start_game`` fan-outs (each 1 + 8 + 8
        messages) on the t=0 event queue before the run proper begins;
        installing state directly keeps bootstrap O(population) with no
        event-queue spike.  Draw order matches ``_start_game(bootstrap=
        True)`` exactly; only the message traffic differs, so this is an
        opt-in mode for the scale benches, not the pinned default."""
        members = self._draw_members()
        gid = next(self._game_ids)
        self.active_games[gid] = members
        self.games_started += 1
        rt = self.runtime
        game_ref = rt.ref(self.GAME, gid)
        placement = rt.placement
        dest = placement.choose(game_ref, 0, rt.num_servers)
        rt.activate(game_ref, dest)
        game = rt.silos[dest].activations[game_ref].instance
        member_refs = []
        for pid in members:
            pref = rt.ref(self.PLAYER, pid)
            pdest = placement.choose(pref, 0, rt.num_servers)
            rt.activate(pref, pdest)
            rt.silos[pdest].activations[pref].instance.game = game_ref
            member_refs.append(pref)
        game.members = member_refs
        lo, hi = self.config.game_duration
        duration = self._match_rng.uniform(lo, hi)
        duration *= self._match_rng.random()  # stationary residual
        rt.sim.defer(duration, self._end_game, gid)

    def _end_game(self, gid: int) -> None:
        if not self._running:
            return
        members = self.active_games.pop(gid, None)
        if members is None:
            return
        game_ref = self.runtime.ref(self.GAME, gid)
        # Player bookkeeping happens only once the game has released every
        # member (in the completion hook): deactivating a departing player
        # before the game's leave_game call reaches it would immediately
        # re-activate it, leaking actors.
        self.runtime.client_request(
            game_ref, "end_game", size=64, response_size=32,
            on_complete=lambda latency, result: self._game_closed(gid, members),
        )

    def _game_closed(self, gid: int, members: list[int]) -> None:
        self.runtime.deactivate(self.runtime.ref(self.GAME, gid),
                                discard_state=True)
        for pid in members:
            self.in_game[pid] = 0
            if self._live_index[pid] < 0:
                continue  # departed concurrently (should not happen)
            self.games_played[pid] += 1
            if self.games_played[pid] >= self.quota[pid]:
                self._remove_player(pid)
            else:
                self.idle_pool.append(pid)

    # ------------------------------------------------------------------
    # Client status requests
    # ------------------------------------------------------------------
    def _schedule_request(self) -> None:
        if not self._running:
            return
        gap = self._request_rng.expovariate(self.config.request_rate)
        self.runtime.sim.schedule(gap, self._fire_request)

    def _fire_request(self) -> None:
        if not self._running:
            return
        self._schedule_request()
        if not self.live_players:
            return
        pid = self.live_players[self._request_rng.randrange(len(self.live_players))]
        if self.config.lazy_idle_pool and not self.in_game[pid]:
            # The workload knows this player is pooled; answer the
            # status probe locally instead of activating an idle actor
            # just to have it say "idle".  RNG draw order above is
            # identical either way.
            self.idle_short_circuits += 1
            return
        ref = self.runtime.ref(self.PLAYER, pid)
        self.requests_issued += 1
        self.runtime.client_request(
            ref, "request_status", self.requests_issued,
            size=REQUEST_SIZE, response_size=RESPONSE_SIZE,
        )

    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        return len(self.live_players)
