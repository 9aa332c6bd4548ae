"""Synthetic communication-graph generators.

The partitioning algorithm is exercised on graph families chosen to match
the paper's workloads and stress cases:

* :func:`clustered_graph` — the Halo-Presence shape: dense small clusters
  (a game and its players) with optional sparse inter-cluster chatter.
* :func:`ring_of_cliques` — a classic partitioning benchmark with a known
  optimal cut.
* :func:`random_graph` — Erdős–Rényi noise, the worst case for locality.
* :func:`power_law_graph` — preferential attachment, modeling social-
  network hub actors.
* :func:`grid_graph` — planar locality, as in spatial game worlds.
"""

from __future__ import annotations

import random
from typing import Optional

from .comm_graph import CommGraph

__all__ = [
    "clustered_graph",
    "ring_of_cliques",
    "random_graph",
    "power_law_graph",
    "grid_graph",
]


def clustered_graph(
    num_clusters: int,
    cluster_size: int,
    intra_weight: float = 10.0,
    inter_edges_per_cluster: int = 2,
    inter_weight: float = 1.0,
    rng: Optional[random.Random] = None,
    hub_and_spoke: bool = True,
) -> CommGraph:
    """Clusters of heavily-communicating vertices, lightly cross-linked.

    With ``hub_and_spoke`` (the Halo shape) each cluster has a hub (the
    game actor) connected to every member (players) — matching the
    player -> game -> broadcast pattern of §3.  Otherwise clusters are
    cliques.
    """
    if num_clusters < 1 or cluster_size < 2:
        raise ValueError("need >= 1 cluster of size >= 2")
    rng = rng or random.Random(0)
    graph = CommGraph()
    clusters: list[list[int]] = []
    next_id = 0
    for _ in range(num_clusters):
        members = list(range(next_id, next_id + cluster_size))
        next_id += cluster_size
        clusters.append(members)
        if hub_and_spoke:
            hub = members[0]
            for member in members[1:]:
                graph.add_edge(hub, member, intra_weight)
        else:
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    graph.add_edge(u, v, intra_weight)
    if num_clusters > 1 and inter_edges_per_cluster > 0:
        for ci, members in enumerate(clusters):
            for _ in range(inter_edges_per_cluster):
                cj = rng.randrange(num_clusters - 1)
                if cj >= ci:
                    cj += 1
                u = rng.choice(members)
                v = rng.choice(clusters[cj])
                graph.add_edge(u, v, inter_weight)
    return graph


def ring_of_cliques(num_cliques: int, clique_size: int, bridge_weight: float = 1.0,
                    clique_weight: float = 5.0) -> CommGraph:
    """Cliques joined in a ring by single light edges.

    The optimal n-way cut (n dividing num_cliques) cuts only bridge
    edges, which gives property tests an exact target.
    """
    if num_cliques < 2 or clique_size < 2:
        raise ValueError("need >= 2 cliques of size >= 2")
    graph = CommGraph()
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                graph.add_edge(base + i, base + j, clique_weight)
    for c in range(num_cliques):
        u = c * clique_size
        v = ((c + 1) % num_cliques) * clique_size + clique_size // 2
        graph.add_edge(u, v, bridge_weight)
    return graph


def random_graph(
    n: int,
    mean_degree: float = 4.0,
    weight_range: tuple[float, float] = (1.0, 5.0),
    rng: Optional[random.Random] = None,
) -> CommGraph:
    """Erdős–Rényi G(n, m) with uniform random weights."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = rng or random.Random(0)
    graph = CommGraph()
    for v in range(n):
        graph.add_vertex(v)
    m = int(n * mean_degree / 2)
    lo, hi = weight_range
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.weight(u, v) > 0:
            continue
        graph.add_edge(u, v, rng.uniform(lo, hi))
        added += 1
    return graph


def power_law_graph(
    n: int,
    attach: int = 2,
    rng: Optional[random.Random] = None,
) -> CommGraph:
    """Barabási–Albert preferential attachment (hub-heavy degree law)."""
    if n < attach + 1:
        raise ValueError("need n > attach")
    rng = rng or random.Random(0)
    graph = CommGraph()
    targets = list(range(attach + 1))
    for i in range(attach + 1):
        for j in range(i + 1, attach + 1):
            graph.add_edge(i, j, 1.0)
    # repeated-endpoint list implements preferential attachment
    endpoint_pool: list[int] = []
    for u, v, _ in graph.edges():
        endpoint_pool.extend((u, v))
    for v in range(attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(endpoint_pool))
        for u in sorted(chosen):
            graph.add_edge(v, u, 1.0)
            endpoint_pool.extend((v, u))
    return graph


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> CommGraph:
    """A rows x cols 4-neighbor mesh."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    graph = CommGraph()
    def vid(r: int, c: int) -> int:
        return r * cols + c
    for r in range(rows):
        for c in range(cols):
            graph.add_vertex(vid(r, c))
            if r + 1 < rows:
                graph.add_edge(vid(r, c), vid(r + 1, c), weight)
            if c + 1 < cols:
                graph.add_edge(vid(r, c), vid(r, c + 1), weight)
    return graph
