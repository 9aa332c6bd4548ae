"""Silo-level communication counters (§4.3), packed flat.

The paper keeps "the relevant counters locally at each actor" and folds
them into the per-server graph summary periodically.  A literal
translation — one ``dict[ActorId, float]`` per activation — costs a few
hundred bytes per actor even when idle, which alone rules out the 10^6
actor populations of §6 on one machine.

``CommTable`` is the memory-lean equivalent: ONE table per silo,
aggregating (source actor, peer) -> weight in parallel arrays.  Each
edge costs one slot in an insertion-ordered index dict (keyed by the
two ids' interned ``seq`` numbers packed into a single int), two list
cells holding the canonical :class:`ActorId` objects, and one C double
— no per-actor containers anywhere.  The periodic partitioning fold
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

from array import array
from typing import Iterable, Iterator

from .ids import ActorId

__all__ = ["CommTable"]

# seq numbers are dense interning indices; two of them fit a single
# machine word.  ActorId.__new__ enforces seq < 2^32 at intern time, so
# the pack below can never alias two distinct edges.
_SHIFT = 32


class CommTable:
    """Flat (source, peer) -> weight aggregation for one silo."""

    __slots__ = ("_index", "_src", "_dst", "_weights")

    def __init__(self) -> None:
        self._index: dict[int, int] = {}
        self._src: list[ActorId] = []
        self._dst: list[ActorId] = []
        self._weights: array = array("d")

    def __len__(self) -> int:
        return len(self._weights)

    def record(self, src: ActorId, dst: ActorId, weight: float = 1.0) -> None:
        """Bump the edge counter from ``src`` toward ``dst``."""
        key = (src.seq << _SHIFT) | dst.seq
        slot = self._index.get(key)
        if slot is None:
            self._index[key] = len(self._weights)
            self._src.append(src)
            self._dst.append(dst)
            self._weights.append(weight)
        else:
            self._weights[slot] += weight

    def weight(self, src: ActorId, dst: ActorId) -> float:
        slot = self._index.get((src.seq << _SHIFT) | dst.seq)
        return self._weights[slot] if slot is not None else 0.0

    def items(self) -> Iterable[tuple[tuple[ActorId, ActorId], float]]:
        """((src, dst), weight) pairs in insertion order; non-destructive."""
        return zip(zip(self._src, self._dst), self._weights)

    def drain(self) -> Iterator[tuple[tuple[ActorId, ActorId], float]]:
        """Hand all counters to the per-server graph fold and reset."""
        src, dst, weights = self._src, self._dst, self._weights
        self._index = {}
        self._src = []
        self._dst = []
        self._weights = array("d")
        return zip(zip(src, dst), weights)

    def merge(self, other: "CommTable") -> None:
        """Exact merge: add ``other``'s counters edge by edge.

        Edges new to ``self`` are appended in ``other``'s insertion
        order, so merging per-silo tables in silo order (as the window
        barrier does) yields one deterministic combined order.
        ``other`` is left untouched.
        """
        for (src, dst), weight in other.items():
            self.record(src, dst, weight)
