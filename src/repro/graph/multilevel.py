"""Centralized multilevel balanced k-way partitioner (METIS stand-in).

§4.1 rules out the centralized design route ("collecting all the data in
one location ... does not scale; METIS ... required several hours"), but
the paper still uses it as the quality yardstick.  This module is our
from-scratch equivalent: the classic three-phase multilevel scheme

1. **Coarsen** by heavy-edge matching until the graph is small,
2. **Initial partition** by greedy balanced assignment, and
3. **Uncoarsen + refine** with boundary Kernighan–Lin/FM passes,

operating on the full graph in one address space.  The ablation bench
(`benchmarks/test_ablation_partitioners.py`) uses it to contextualize the
distributed algorithm's cut quality and to demonstrate the centralized
running-time blowup with graph size.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Hashable, Mapping, Optional

from .comm_graph import CommGraph

__all__ = ["multilevel_partition"]

Vertex = Hashable

IMBALANCE = 0.05      # allowed relative overload per part (epsilon)
COARSEN_UNTIL = 200   # stop coarsening below this many coarse vertices
REFINE_PASSES = 4     # FM passes per uncoarsening level


def _heavy_edge_matching(
    graph: CommGraph, vweights: Mapping[Vertex, int], rng: random.Random
) -> tuple[CommGraph, dict[Vertex, int], dict[Vertex, Vertex]]:
    """One coarsening level: match each vertex to its heaviest unmatched
    neighbor, merge the pairs, and return (coarse graph, coarse vertex
    weights, fine->coarse map)."""
    order = list(graph.vertices())
    rng.shuffle(order)
    matched: set[Vertex] = set()
    merge_to: dict[Vertex, Vertex] = {}
    for v in order:
        if v in matched:
            continue
        best, best_w = None, 0.0
        for u, w in graph.neighbors(v).items():
            if u not in matched and w > best_w:
                best, best_w = u, w
        matched.add(v)
        merge_to[v] = v
        if best is not None:
            matched.add(best)
            merge_to[best] = v

    coarse = CommGraph()
    cweights: dict[Vertex, int] = {}
    for v, rep in merge_to.items():
        cweights[rep] = cweights.get(rep, 0) + vweights[v]
        coarse.add_vertex(rep)
    for u, v, w in graph.edges():
        ru, rv = merge_to[u], merge_to[v]
        if ru != rv:
            coarse.add_edge(ru, rv, w)
    return coarse, cweights, merge_to


def _region_growth_order(graph: CommGraph) -> list[Vertex]:
    """Vertices in Prim-style region-growth order: always visit next the
    unvisited vertex with the greatest total edge weight into the visited
    region.  Tight communities come out contiguous, which is exactly what
    the greedy initial partition needs."""
    order: list[Vertex] = []
    visited: set[Vertex] = set()
    attraction: dict[Vertex, float] = {}
    by_degree = sorted(graph.vertices(), key=graph.degree, reverse=True)
    heap: list[tuple[float, int, Vertex]] = []
    counter = itertools.count()

    def visit(v: Vertex) -> None:
        visited.add(v)
        order.append(v)
        for u, w in graph.neighbors(v).items():
            if u not in visited:
                attraction[u] = attraction.get(u, 0.0) + w
                heapq.heappush(heap, (-attraction[u], next(counter), u))

    for seed in by_degree:
        if seed in visited:
            continue
        visit(seed)
        while heap:
            neg, _, v = heapq.heappop(heap)
            if v in visited or attraction.get(v) != -neg:
                continue  # stale entry
            visit(v)
    return order


def _greedy_initial_partition(
    graph: CommGraph,
    vweights: Mapping[Vertex, int],
    parts: int,
    capacity: float,
    rng: random.Random,
) -> dict[Vertex, int]:
    """Assign vertices in weighted-BFS order from high-degree seeds, each
    to the connected part with the most attraction (falling back to the
    lightest part).  BFS order keeps clusters contiguous so the greedy
    pass does not scatter a tight community across parts."""
    order = _region_growth_order(graph)
    assignment: dict[Vertex, int] = {}
    loads = [0.0] * parts
    for v in order:
        attraction = [0.0] * parts
        for u, w in graph.neighbors(v).items():
            p = assignment.get(u)
            if p is not None:
                attraction[p] += w
        candidates = [
            p for p in range(parts) if loads[p] + vweights[v] <= capacity
        ]
        if not candidates:
            candidates = list(range(parts))
        best = max(candidates, key=lambda p: (attraction[p], -loads[p]))
        assignment[v] = best
        loads[best] += vweights[v]
    return assignment


def _refine(
    graph: CommGraph,
    vweights: Mapping[Vertex, int],
    assignment: dict[Vertex, int],
    parts: int,
    capacity: float,
    passes: int,
) -> None:
    """Boundary FM refinement: greedily move vertices with positive gain
    while capacities allow; repeat until a pass makes no move."""
    loads = [0.0] * parts
    for v, p in assignment.items():
        loads[p] += vweights[v]
    for _ in range(passes):
        moved = 0
        for v in graph.vertices():
            here = assignment[v]
            pull = [0.0] * parts
            for u, w in graph.neighbors(v).items():
                pull[assignment[u]] += w
            internal = pull[here]
            best_gain, best_part = 0.0, here
            for p in range(parts):
                if p == here:
                    continue
                if loads[p] + vweights[v] > capacity:
                    continue
                gain = pull[p] - internal
                if gain > best_gain:
                    best_gain, best_part = gain, p
            if best_part != here:
                assignment[v] = best_part
                loads[here] -= vweights[v]
                loads[best_part] += vweights[v]
                moved += 1
        if moved == 0:
            break


def multilevel_partition(
    graph: CommGraph,
    parts: int,
    rng: Optional[random.Random] = None,
) -> dict[Vertex, int]:
    """Partition ``graph`` into ``parts`` balanced sets, minimizing cut.

    Args:
        graph: the full communication graph (centralized view).
        parts: number of servers n.
        rng: randomness for matching/initial partition tie-breaks.

    Returns:
        vertex -> part assignment covering every vertex.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return {v: 0 for v in graph.vertices()}
    rng = rng or random.Random(0)

    levels: list[tuple[CommGraph, dict[Vertex, int], dict[Vertex, Vertex]]] = []
    current = graph
    vweights: dict[Vertex, int] = {v: 1 for v in graph.vertices()}
    while current.num_vertices > max(COARSEN_UNTIL, 4 * parts):
        coarse, cweights, merge_to = _heavy_edge_matching(current, vweights, rng)
        if coarse.num_vertices == current.num_vertices:
            break  # nothing matched; graph is edgeless or adversarial
        levels.append((current, vweights, merge_to))
        current, vweights = coarse, cweights

    def initial_cap(total: float) -> float:
        return (total / parts) * (1.0 + IMBALANCE)

    def refine_cap(total: float) -> float:
        # Refinement needs at least one unit of slack, or positive-gain
        # FM moves between exactly-full parts would all be blocked.
        return max(initial_cap(total), total / parts + 1.0)

    total = sum(vweights.values())
    assignment = _greedy_initial_partition(
        current, vweights, parts, initial_cap(total), rng
    )
    _refine(current, vweights, assignment, parts, refine_cap(total), REFINE_PASSES)

    while levels:
        fine_graph, fine_weights, merge_to = levels.pop()
        assignment = {v: assignment[rep] for v, rep in merge_to.items()}
        total = sum(fine_weights.values())
        _refine(fine_graph, fine_weights, assignment, parts, refine_cap(total),
                REFINE_PASSES)
    return assignment
