"""A server's local view of the actor communication graph.

§4.2: "Every server p maintains the list of edges from the vertices of p
to other vertices in the system."  The view is *partial* (only heavy
edges survive Space-Saving sampling) and *possibly stale* (locations
change under it); the protocol is explicitly designed to tolerate both.

:class:`PartitionView` is the interface between the pure algorithm
(:mod:`.candidate`, :mod:`.exchange`) and whichever host feeds it —
the online :class:`~repro.core.partitioning.coordinator.PartitionAgent`
inside the actor runtime, or the offline driver used for static-graph
experiments.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional

__all__ = ["PartitionView"]

Vertex = Hashable
ServerId = int


class PartitionView:
    """What server ``server_id`` knows when it runs a partitioning round.

    Args:
        server_id: this server (p).
        edges: local vertex -> {neighbor -> weight}; the (sampled) heavy
            edges incident to p's vertices.
        locate: best-effort resolver from vertex to hosting server.  For
            the offline driver it is ground truth; online it consults the
            location cache and directory.
        size: number of actors hosted here (|Vp|) — may exceed
            ``len(edges)`` because actors without sampled edges still
            count toward balance.
        peer_sizes: believed |Vq| per remote server, for the balance
            constraint.
        sizes: per-actor sizes (§4.2 extension) or None; with sizes,
            ``size``, ``peer_sizes`` and k are in size units.
        migration_penalty: with sizes, a candidate scores
            ``R_{p,q}(v) - migration_penalty * size(v)``.
    """

    def __init__(
        self,
        server_id: ServerId,
        edges: Mapping[Vertex, Mapping[Vertex, float]],
        locate: Callable[[Vertex], Optional[ServerId]],
        size: float,
        peer_sizes: Mapping[ServerId, float],
        sizes: Optional[Mapping[Vertex, float]] = None,
        migration_penalty: float = 0.0,
    ):
        self.server_id = server_id
        self.edges = edges
        self.resolve = locate  # the resolver alone, for vertices outside edges
        self.size = size
        self.peer_sizes = dict(peer_sizes)
        self.sizes = sizes
        self.migration_penalty = migration_penalty

    def locate(self, vertex: Vertex) -> Optional[ServerId]:
        """Where this server believes ``vertex`` lives (None if unknown).

        Local vertices are always resolved locally — a server knows
        exactly what it hosts.
        """
        if vertex in self.edges:
            return self.server_id
        return self.resolve(vertex)

    def neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        return self.edges.get(vertex, {})

    def local_vertices(self):
        return self.edges.keys()

    def peers(self) -> list[ServerId]:
        return [q for q in self.peer_sizes if q != self.server_id]
