"""The distributed placement directory (modeled) and location caches.

Orleans keeps a distributed directory mapping actor to hosting server;
§4.3's migration mechanism works by *removing* an actor's entry and
letting the next caller re-place it, steered by location-cache hints on
the two servers involved in the migration.

Modeling note: we keep the directory as a single authoritative map with
atomic updates (the DES serializes all events, so no distributed-registry
races arise).  Lookup cost is zero — consistent with the paper, whose
latency story never charges directory traffic; what matters here is the
*protocol* around entries appearing and disappearing.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from .ids import ActorId

__all__ = ["Directory", "LocationCache"]

LOCATION_CACHE_CAPACITY = 100_000   # placement hints a silo keeps


class Directory:
    """Authoritative actor -> server map plus a per-server census."""

    def __init__(self, num_servers: int):
        self._entries: dict[ActorId, int] = {}
        self._census: Counter[int] = Counter({p: 0 for p in range(num_servers)})
        # lookup(actor_id) -> server or None: the map's own C-level get,
        # so a resolver handed to a hot loop costs no Python frame.
        self.lookup: Callable[[ActorId], Optional[int]] = self._entries.get

    def register(self, actor_id: ActorId, server: int) -> None:
        if actor_id in self._entries:
            raise ValueError(f"{actor_id} is already registered")
        self._entries[actor_id] = server
        self._census[server] += 1

    def unregister(self, actor_id: ActorId) -> int:
        """Remove an entry (deactivation); returns the old server."""
        server = self._entries.pop(actor_id)
        self._census[server] -= 1
        return server

    def census(self) -> dict[int, int]:
        """Activations per server (the balance denominator)."""
        return dict(self._census)

    def entries(self) -> list[tuple[ActorId, int]]:
        """A snapshot of every (actor, server) registration.

        Insertion-ordered, so deterministic samplers (e.g. the fault
        injector's staleness action) stay reproducible across runs.
        """
        return list(self._entries.items())

    def count(self, server: int) -> int:
        return self._census[server]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, actor_id: ActorId) -> bool:
        return actor_id in self._entries


class LocationCache:
    """A silo's bounded cache of placement hints (§4.3).

    After migrating actor A from p to q, both p and q record A -> q; the
    next message to A from either silo re-places it on q.  "Old cached
    location values are evicted in order to maintain low space overhead"
    — we use FIFO eviction at ``capacity`` (a silo's cache holds
    :data:`LOCATION_CACHE_CAPACITY`).
    """

    def __init__(self, capacity: int = LOCATION_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._hints: dict[ActorId, int] = {}

    def hint(self, actor_id: ActorId, server: int) -> None:
        if actor_id in self._hints:
            # refresh: move to the back of the FIFO
            del self._hints[actor_id]
        elif len(self._hints) >= self.capacity:
            oldest = next(iter(self._hints))
            del self._hints[oldest]
        self._hints[actor_id] = server

    def get(self, actor_id: ActorId) -> Optional[int]:
        return self._hints.get(actor_id)

    def forget(self, actor_id: ActorId) -> None:
        self._hints.pop(actor_id, None)

    def __len__(self) -> int:
        return len(self._hints)
