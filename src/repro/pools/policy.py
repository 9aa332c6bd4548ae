"""Balancing policies for data-parallel actor pools.

A policy decides, per routed request, which worker replica serves it.
Policies live *inside* the :class:`~repro.pools.router.RouterActor`'s
state — they migrate with the router, hold only plain-Python fields, and
draw no randomness (ties break by a rotating cursor, not an RNG), so a
seeded run routes identically every time.

Routers are sharded (one per silo is the usual shape), and each shard
balances on its *own* in-flight counts — so anything that biases ties
toward a fixed index makes every shard herd onto the same replicas at
once.  Two structural defenses, both deterministic: tie-breaks rotate
(an all-idle pool degenerates to round-robin, not to replica 0), and
:meth:`BalancingPolicy.bind` tells a policy which shard it serves so
:class:`DpaPolicy` can place its active window at a per-shard offset
(shards consolidate onto *disjoint* replica ranges instead of piling
onto a shared prefix).

Three policies, in ascending awareness:

* :class:`RoundRobinPolicy` — the classic oblivious baseline.
* :class:`LeastOutstandingPolicy` — routes to the replica with the
  fewest in-flight requests (join-shortest-queue on the router's own
  bookkeeping).
* :class:`DpaPolicy` — DPA-style load-aware balancing (after the
  distributed pool-adaptation scheme of arXiv:2308.00938): scores each
  replica by in-flight count *plus* its host silo's reported SEDA
  worker-stage backpressure, and adapts the number of *active* replicas
  to demand — concentrating traffic on few replicas at low load (better
  locality, fewer activations) and spreading across the whole pool as
  pressure rises.
"""

from __future__ import annotations

__all__ = [
    "BalancingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "DpaPolicy",
    "POLICIES",
    "make_policy",
]

# DpaPolicy's active-window thresholds, in in-flight requests: grow when
# every active replica has GROW_AT, shrink when the mean falls to
# SHRINK_AT, never below MIN_ACTIVE replicas.
GROW_AT = 1.0
SHRINK_AT = 0.25
MIN_ACTIVE = 1


class BalancingPolicy:
    """Base class: pick a replica index in ``[0, limit)``.

    ``outstanding[i]`` counts requests the router has in flight toward
    replica ``i``; ``loads[i]`` is the latest reported load signal for
    replica ``i`` (SEDA backpressure of its host silo, scaled — see
    :class:`~repro.pools.router.ActorPool`), zero when unreported.
    """

    name = "base"

    def choose(self, outstanding: list[int], loads: list[float],
               limit: int) -> int:
        raise NotImplementedError

    def bind(self, shard: int, shards: int) -> None:
        """Hook: this policy instance serves router shard ``shard`` of
        ``shards`` (called once at configure time)."""


class RoundRobinPolicy(BalancingPolicy):
    """Cycle through replicas obliviously."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, outstanding: list[int], loads: list[float],
               limit: int) -> int:
        idx = self._next % limit
        self._next = (idx + 1) % limit
        return idx


class LeastOutstandingPolicy(BalancingPolicy):
    """Join the shortest queue the router can see (its own in-flight
    counts).  The scan starts one past the previous pick and wraps, so
    ties rotate: an idle pool spreads like round-robin instead of every
    shard dogpiling replica 0."""

    name = "least_outstanding"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, outstanding: list[int], loads: list[float],
               limit: int) -> int:
        start = self._next % limit
        best = start
        best_value = outstanding[start]
        for step in range(1, limit):
            i = (start + step) % limit
            if outstanding[i] < best_value:
                best = i
                best_value = outstanding[i]
        self._next = (best + 1) % limit
        return best


class DpaPolicy(BalancingPolicy):
    """Load-aware scoring over a demand-adapted active replica set.

    Each choice first adapts ``active`` (how many of the pool's replicas
    receive traffic at all).  Replicas are single-threaded actors, so the
    signal is idleness, not queue depth: when *every* active replica has
    at least :data:`GROW_AT` requests in flight there is no idle capacity
    left and one more replica activates; when mean in-flight pressure
    falls to :data:`SHRINK_AT` one retires.  The request then goes to the
    active replica minimizing ``outstanding[i] + loads[i]`` — in-flight
    work plus the host silo's reported worker-stage backpressure, so a
    replica behind a saturated (or deliberately slowed) silo is avoided
    even when few requests are charged to it.

    The active window starts at a per-shard offset (see
    :meth:`BalancingPolicy.bind`): shard ``s`` of ``S`` consolidates onto
    replicas from ``s/S`` of the way around the ring, so low-load
    consolidation lands different shards on different replicas instead
    of serializing the whole pool behind a shared prefix.  Deterministic:
    no RNG, rotating tie-breaks.
    """

    name = "dpa"

    def __init__(self) -> None:
        self.active = MIN_ACTIVE
        self.grow_steps = 0
        self.shrink_steps = 0
        self._next = 0
        self._offset_frac = 0.0
        self._shards = 1

    def bind(self, shard: int, shards: int) -> None:
        self._offset_frac = shard / shards
        self._shards = shards

    def choose(self, outstanding: list[int], loads: list[float],
               limit: int) -> int:
        active = max(MIN_ACTIVE, min(self.active, limit))
        offset = int(self._offset_frac * limit) % limit
        pressure = 0.0
        least = None
        for j in range(active):
            value = outstanding[(offset + j) % limit]
            pressure += value
            if least is None or value < least:
                least = value
        mean = pressure / active
        if least >= GROW_AT and active < limit:
            active += 1
            self.grow_steps += 1
        elif mean <= SHRINK_AT and active > MIN_ACTIVE:
            active -= 1
            self.shrink_steps += 1
        self.active = active

        # Unit match: loads[i] is the replica's *global* queue (every
        # shard's traffic lands in it) while outstanding[i] is only this
        # shard's slice — scale it up by the shard count or a shard keeps
        # feeding a replica whose reported load is merely stale-low while
        # its own pile there already exceeds the alternative's capacity.
        start = self._next % active
        best = offset % limit
        best_pos = start
        best_score = None
        for step in range(active):
            j = (start + step) % active
            i = (offset + j) % limit
            score = self._shards * outstanding[i] + loads[i]
            if best_score is None or score < best_score:
                best = i
                best_pos = j
                best_score = score
        self._next = (best_pos + 1) % active
        return best


POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastOutstandingPolicy.name: LeastOutstandingPolicy,
    DpaPolicy.name: DpaPolicy,
}


def make_policy(name: str) -> BalancingPolicy:
    """Instantiate a registered policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown balancing policy {name!r} "
            f"(choices: {', '.join(sorted(POLICIES))})") from None
