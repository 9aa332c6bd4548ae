"""Reference for ``greedy_exchange``: the full-scan score update.

This is ``repro.core.partitioning.exchange`` as it stood at dcbed33,
before PR 20 replaced the per-move rescan of both candidate sides
(through ``_edge_weight``, O(candidates) per move) with a walk over the
moved vertex's neighbours.  ``test_prop_exchange.py`` requires the two to
agree on ``accepted``, ``returned`` (order included) and
``estimated_gain`` bit for bit; the scan order here — each side in
candidate order — is what the shipped walk must reproduce, because every
``bump`` pushes under the sequence counter that breaks ties in its side's
heap.  Do not optimise this file.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable, Mapping, Optional, Sequence

from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.exchange import ExchangeOutcome

Vertex = Hashable


class _Side:
    """One of the two heaps, with lazy invalidation on score updates."""

    def __init__(self, candidates: Sequence[Candidate], seq: "itertools.count"):
        self.score: dict[Vertex, float] = {}
        self.edges: dict[Vertex, dict[Vertex, float]] = {}
        self.marked: set[Vertex] = set()
        self._heap: list[tuple[float, int, Vertex]] = []
        self._seq = seq
        for cand in candidates:
            self.score[cand.vertex] = cand.score
            self.edges[cand.vertex] = cand.edges
            heapq.heappush(self._heap, (-cand.score, next(seq), cand.vertex))

    def push(self, v: Vertex) -> None:
        heapq.heappush(self._heap, (-self.score[v], next(self._seq), v))

    def peek(self) -> Optional[tuple[Vertex, float]]:
        """Best unmarked candidate with a *positive, current* score."""
        while self._heap:
            neg, _, v = self._heap[0]
            if v in self.marked or self.score.get(v) != -neg:
                heapq.heappop(self._heap)  # stale or already taken
                continue
            if -neg <= 0:
                return None
            return v, -neg
        return None

    def mark(self, v: Vertex) -> None:
        self.marked.add(v)

    def bump(self, v: Vertex, delta: float) -> None:
        if v in self.score and v not in self.marked:
            self.score[v] += delta
            self.push(v)


def _edge_weight(side_a: _Side, a: Vertex, side_b: _Side, b: Vertex) -> float:
    """Weight of edge (a, b) as known by either endpoint's shipped list."""
    w = side_a.edges.get(a, {}).get(b, 0.0)
    if w:
        return w
    return side_b.edges.get(b, {}).get(a, 0.0)


def fullscan_greedy_exchange(
    s_candidates: Sequence[Candidate],
    t_candidates: Sequence[Candidate],
    size_p: float,
    size_q: float,
    delta: float,
    vertex_sizes: Optional[Mapping[Vertex, float]] = None,
) -> ExchangeOutcome:
    """Same contract as :func:`repro.core.partitioning.exchange.greedy_exchange`."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    seq = itertools.count()
    s_side = _Side(s_candidates, seq)
    t_side = _Side(t_candidates, seq)
    outcome = ExchangeOutcome()

    def vsize(v: Vertex) -> float:
        if vertex_sizes is None:
            return 1.0
        return vertex_sizes.get(v, 1.0)

    moved_to_q = 0.0  # total size marked p -> q
    moved_to_p = 0.0  # total size marked q -> p

    def gap(extra_s: float, extra_t: float) -> float:
        a = moved_to_q + extra_s
        b = moved_to_p + extra_t
        return abs((size_p - a + b) - (size_q + a - b))

    def balance_ok(extra_s: float, extra_t: float) -> bool:
        # Within tolerance, or strictly shrinking a gap that already
        # exceeds it (sizes drift via exchanges with *other* peers; a
        # strict <= delta check would freeze such pairs even though a
        # positive-score, gap-reducing move both lowers cost and restores
        # balance).
        new_gap = gap(extra_s, extra_t)
        return new_gap <= delta or new_gap < gap(0.0, 0.0)

    while True:
        best_s = s_side.peek()
        best_t = t_side.peek()
        s_ok = best_s is not None and balance_ok(vsize(best_s[0]), 0.0)
        t_ok = best_t is not None and balance_ok(0.0, vsize(best_t[0]))

        take_s: Optional[bool] = None
        if s_ok and t_ok:
            take_s = best_s[1] >= best_t[1]
        elif s_ok:
            take_s = True
        elif t_ok:
            take_s = False
        else:
            break  # nothing positive is feasible

        if take_s:
            v, score = best_s  # type: ignore[misc]
            s_side.mark(v)
            outcome.accepted.append(v)
            outcome.estimated_gain += score
            moved_to_q += vsize(v)
            # v moved p -> q: S-side neighbors (still at p) gain 2w — their
            # edge to v flips from local-at-p to would-be-local-at-q;
            # T-side neighbors (at q, leaving for p) lose 2w.
            for u in list(s_side.score):
                if u is not v and u not in s_side.marked:
                    w = _edge_weight(s_side, u, s_side, v)
                    if w:
                        s_side.bump(u, 2.0 * w)
            for u in list(t_side.score):
                if u not in t_side.marked:
                    w = _edge_weight(t_side, u, s_side, v)
                    if w:
                        t_side.bump(u, -2.0 * w)
        else:
            v, score = best_t  # type: ignore[misc]
            t_side.mark(v)
            outcome.returned.append(v)
            outcome.estimated_gain += score
            moved_to_p += vsize(v)
            for u in list(t_side.score):
                if u is not v and u not in t_side.marked:
                    w = _edge_weight(t_side, u, t_side, v)
                    if w:
                        t_side.bump(u, 2.0 * w)
            for u in list(s_side.score):
                if u not in s_side.marked:
                    w = _edge_weight(s_side, u, t_side, v)
                    if w:
                        s_side.bump(u, -2.0 * w)
    return outcome
