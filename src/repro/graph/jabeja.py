"""Ja-Be-Ja: distributed balanced partitioning by color swaps.

Rahimian et al. (SASO 2013) — the paper's closest related work ([30],
§4.1/§7).  Every vertex holds a color (its server); pairs of vertices
*swap* colors when the swap increases the number of same-color neighbors,
with simulated annealing to escape local optima.  Because only swaps
happen, balance is preserved exactly — but each swap is an object-level
exchange, which is precisely the unbatched per-vertex coordination the
paper argues does not scale to rapidly changing graphs.

This implementation is used by the ablation bench to compare convergence
behavior (swaps executed vs. cut achieved) against ActOp's server-level
batched exchanges.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from .comm_graph import CommGraph

__all__ = ["jabeja_partition", "JabejaResult"]

Vertex = Hashable

ALPHA = 2.0           # utility exponent (the paper's recommended 2)
TEMPERATURE = 2.0     # initial annealing temperature (>= 1)
COOLING = 0.01        # temperature decrement per round (floors at 1.0)
SAMPLE_SIZE = 3       # random (non-neighbor) partner candidates per vertex


class JabejaResult:
    """Outcome of a Ja-Be-Ja run."""

    def __init__(self, assignment: dict[Vertex, int], swaps: int, rounds: int):
        self.assignment = assignment
        self.swaps = swaps
        self.rounds = rounds


def _color_degree(graph: CommGraph, assignment: dict[Vertex, int], v: Vertex,
                  color: int) -> float:
    return sum(w for u, w in graph.neighbors(v).items() if assignment[u] == color)


def jabeja_partition(
    graph: CommGraph,
    parts: int,
    rounds: int = 100,
    rng: Optional[random.Random] = None,
    initial: Optional[dict[Vertex, int]] = None,
) -> JabejaResult:
    """Run Ja-Be-Ja color swapping.

    Args:
        graph: the communication graph.
        parts: number of colors (servers).
        rounds: sweeps over all vertices.
        rng: randomness source.
        initial: starting colors; defaults to balanced round-robin over a
            shuffled vertex order (the random placement baseline).

    Returns:
        :class:`JabejaResult` with the final assignment and swap count.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    rng = rng or random.Random(0)
    vertices = list(graph.vertices())
    if initial is None:
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        assignment = {v: i % parts for i, v in enumerate(shuffled)}
    else:
        assignment = dict(initial)

    swaps = 0
    temp = TEMPERATURE
    for round_no in range(rounds):
        order = vertices[:]
        rng.shuffle(order)
        for v in order:
            cv = assignment[v]
            partners = list(graph.neighbors(v))
            partners.extend(rng.choice(vertices) for _ in range(SAMPLE_SIZE))
            best_partner, best_score = None, 0.0
            dv_own = _color_degree(graph, assignment, v, cv)
            for u in partners:
                cu = assignment[u]
                if cu == cv or u == v:
                    continue
                du_own = _color_degree(graph, assignment, u, cu)
                old = dv_own**ALPHA + du_own**ALPHA
                dv_new = _color_degree(graph, assignment, v, cu)
                du_new = _color_degree(graph, assignment, u, cv)
                # Color swap changes (v,u) adjacency bookkeeping for the
                # pair itself; exclude the mutual edge, as in the paper.
                shared = graph.weight(v, u)
                if shared:
                    dv_new -= shared
                    du_new -= shared
                new = dv_new**ALPHA + du_new**ALPHA
                score = new * temp - old
                if score > best_score:
                    best_partner, best_score = u, score
            if best_partner is not None:
                assignment[v], assignment[best_partner] = (
                    assignment[best_partner],
                    assignment[v],
                )
                swaps += 1
        temp = max(1.0, temp - COOLING)
    return JabejaResult(assignment, swaps, rounds)
