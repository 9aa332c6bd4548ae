"""Weighted undirected communication graphs.

The partitioning problem of §4.1 is defined over a graph whose vertices
are actors and whose edge weights are proportional to the message rate
between a pair of actors.  This module gives the offline representation
used by the synthetic-graph studies, the comparator partitioners, and the
property tests; the *online* per-server view lives in
:mod:`repro.core.partitioning` and is fed by Space-Saving samples.
"""

from __future__ import annotations

from typing import Hashable, Iterator

__all__ = ["CommGraph"]

Vertex = Hashable


class CommGraph:
    """An undirected weighted graph stored as nested adjacency dicts."""

    def __init__(self) -> None:
        self._adj: dict[Vertex, dict[Vertex, float]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        self._adj.setdefault(v, {})

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add ``weight`` to the edge (u, v); creates vertices as needed."""
        if u == v:
            raise ValueError("self-loops are not meaningful here")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self._adj.setdefault(u, {})
        self._adj.setdefault(v, {})
        self._adj[u][v] = self._adj[u].get(v, 0.0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0.0) + weight

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def neighbors(self, v: Vertex) -> dict[Vertex, float]:
        """The neighbor->weight map of ``v`` (do not mutate)."""
        return self._adj[v]

    def weight(self, u: Vertex, v: Vertex) -> float:
        return self._adj.get(u, {}).get(v, 0.0)

    def degree(self, v: Vertex) -> float:
        """Weighted degree: sum of incident edge weights."""
        return sum(self._adj[v].values())

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Each undirected edge once, as (u, v, weight)."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())
