"""Silo-level communication counters (§4.3), one flat table.

The paper keeps "the relevant counters locally at each actor" and folds
them into the per-server graph summary periodically.  A literal
translation — one ``dict[ActorId, float]`` per activation — costs a few
hundred bytes per actor even when idle, which alone rules out the 10^6
actor populations of §6 on one machine.

``CommTable`` is the memory-lean equivalent: ONE table per silo, a
single insertion-ordered ``dict[(source actor, peer)] -> weight`` — no
per-actor containers anywhere.  Interned ids hash by identity in C, so
the edge tuple is the key as it stands.  The periodic partitioning fold
drains the whole table in one pass instead of touching every
activation, which also turns the fold from O(activations) into
O(active edges).

Iteration order is the insertion order of first recording — a
deterministic function of the seeded event schedule — never hash order.

The silo's partition agent owns the table: ``SiloCore.comm_table`` starts
as ``None`` and :class:`~repro.core.partitioning.coordinator.PartitionAgent`
installs it at construction, so a silo nothing partitions records no
edges that nothing would ever drain.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .ids import ActorId

__all__ = ["CommTable"]


class CommTable:
    """Flat (source, peer) -> weight aggregation for one silo."""

    __slots__ = ("_weights",)

    def __init__(self) -> None:
        self._weights: dict[tuple[ActorId, ActorId], float] = {}

    def __len__(self) -> int:
        return len(self._weights)

    def record(self, src: ActorId, dst: ActorId, weight: float = 1.0) -> None:
        """Bump the edge counter from ``src`` toward ``dst``."""
        weights = self._weights
        edge = (src, dst)
        weights[edge] = weights.get(edge, 0.0) + weight

    def weight(self, src: ActorId, dst: ActorId) -> float:
        return self._weights.get((src, dst), 0.0)

    def items(self) -> Iterable[tuple[tuple[ActorId, ActorId], float]]:
        """((src, dst), weight) pairs in insertion order; non-destructive."""
        return self._weights.items()

    def drain(self) -> Iterator[tuple[tuple[ActorId, ActorId], float]]:
        """Hand all counters to the per-server graph fold and reset."""
        weights = self._weights
        self._weights = {}
        return iter(weights.items())

    def merge(self, other: "CommTable") -> None:
        """Exact merge: add ``other``'s counters edge by edge.

        Edges new to ``self`` are appended in ``other``'s insertion
        order, so merging per-silo tables in silo order (as the window
        barrier does) yields one deterministic combined order.
        ``other`` is left untouched.
        """
        for (src, dst), weight in other.items():
            self.record(src, dst, weight)
