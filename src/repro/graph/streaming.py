"""One-pass streaming graph partitioning (Stanton & Kliot, KDD 2012).

Reference [31] of the paper — co-authored by ActOp's second author — and
the natural third comparator: it needs neither the full graph in memory
(centralized multilevel) nor iterative refinement (Alg. 1, Ja-Be-Ja).
Vertices arrive one at a time with their edge lists and are assigned
immediately and permanently.

Heuristics implemented (names from the KDD paper):

* ``balanced``      — always the least-loaded part (the balance-only
  baseline; equivalent to round-robin under ties).
* ``hash``          — deterministic hash of the vertex id.
* ``greedy``        — *linear deterministic greedy* (LDG), the paper's
  winner: maximize |N(v) ∩ P_i| * (1 - |P_i|/C), neighbors weighted,
  capacity-penalized.
* ``fennel``        — the Fennel-style variant with an additive load
  penalty (:data:`GAMMA` * |P_i|), a common follow-on; included because it often
  edges out LDG on power-law graphs.

Streaming placement is the regime an actor runtime actually faces at
*activation* time (an actor appears and must be placed now), which makes
this comparator a lens on the paper's "static actor assignment is
insufficient" argument: a good one-shot placement still decays as the
communication graph churns.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterable, Optional

from .comm_graph import CommGraph

__all__ = ["streaming_partition", "STREAMING_HEURISTICS"]

Vertex = Hashable

# Capacity headroom: each part holds at most ceil(n/parts * (1+SLACK)).
SLACK = 0.1
GAMMA = 1.5   # fennel's load-penalty coefficient


def _stable_hash(vertex: Vertex, parts: int) -> int:
    h = 0
    for ch in str(vertex):
        h = (h * 131 + ord(ch)) % (2**32)
    return h % parts


def _score_balanced(part, load, capacity, attraction):
    return -load


def _score_greedy(part, load, capacity, attraction):
    # Linear deterministic greedy: neighbor pull, linearly damped by fill.
    return attraction * (1.0 - load / capacity)


def _score_fennel(part, load, capacity, attraction):
    return attraction - GAMMA * load


STREAMING_HEURISTICS = ("balanced", "hash", "greedy", "fennel")


def streaming_partition(
    graph: CommGraph,
    parts: int,
    heuristic: str = "greedy",
    order: Optional[Iterable[Vertex]] = None,
    rng: Optional[random.Random] = None,
) -> dict[Vertex, int]:
    """Assign vertices in a single streaming pass.

    Args:
        graph: the communication graph (consulted only for the arriving
            vertex's incident edges, as a stream would deliver them).
        parts: number of servers.
        heuristic: one of :data:`STREAMING_HEURISTICS`.
        order: arrival order (default: random shuffle — the hardest case
            for streaming heuristics).
        rng: randomness for the default order and tie-breaks.

    Returns:
        vertex -> part assignment.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if heuristic not in STREAMING_HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    rng = rng or random.Random(0)
    vertices = list(order) if order is not None else None
    if vertices is None:
        vertices = list(graph.vertices())
        rng.shuffle(vertices)
    n = len(vertices)
    if n == 0:
        return {}
    capacity = max(1.0, (n / parts) * (1.0 + SLACK))

    if heuristic == "hash":
        return {v: _stable_hash(v, parts) for v in vertices}

    score: Callable = {
        "balanced": _score_balanced,
        "greedy": _score_greedy,
        "fennel": _score_fennel,
    }[heuristic]

    assignment: dict[Vertex, int] = {}
    loads = [0.0] * parts
    for v in vertices:
        attraction = [0.0] * parts
        for u, w in graph.neighbors(v).items():
            p = assignment.get(u)
            if p is not None:
                attraction[p] += w
        best_part, best_score = None, None
        for p in range(parts):
            if loads[p] + 1 > capacity:
                continue
            # Ties broken by least load (as in the KDD paper) — otherwise
            # every zero-attraction arrival piles onto the first part.
            s = (score(p, loads[p], capacity, attraction[p]), -loads[p])
            if best_score is None or s > best_score:
                best_part, best_score = p, s
        if best_part is None:  # every part at capacity (SLACK too tight)
            best_part = min(range(parts), key=lambda p: loads[p])
        assignment[v] = best_part
        loads[best_part] += 1
    return assignment
