"""Greedy two-heap exchange-subset selection (§4.2).

When q accepts an exchange request it must pick S0 ⊆ S (which of p's
candidates to take) and T0 ⊆ T (which of its own to send back).  Exact
balanced partitioning is NP-hard, so the paper uses an iterative greedy
procedure:

1. build two max-heaps keyed by transfer score — one over S (p→q moves),
   one over T (q→p moves);
2. repeatedly take the highest-scored vertex overall; if moving it would
   violate the balance constraint between p and q, take the best vertex
   from the *other* heap instead;
3. after each marked move, update the scores of every remaining candidate
   that shares an edge with the moved vertex (a p→q move raises the score
   of its S-side neighbors by 2w and lowers its T-side neighbors' by 2w,
   and symmetrically) — found through an index of which candidates name
   which vertex, so a move costs O(its degree), not O(candidates);
4. stop when no positive-score move is feasible.

Only positive-score vertices are ever marked, which is what gives
Theorem 1 its monotone cost decrease.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Sequence

from .candidate import Candidate

__all__ = ["ExchangeOutcome", "greedy_exchange"]

Vertex = Hashable
ServerId = int


@dataclass
class ExchangeOutcome:
    """Result of one greedy exchange between p (initiator) and q."""

    accepted: list[Vertex] = field(default_factory=list)   # S0: move p -> q
    returned: list[Vertex] = field(default_factory=list)   # T0: move q -> p
    estimated_gain: float = 0.0                            # sum of marked scores

    @property
    def moves(self) -> int:
        return len(self.accepted) + len(self.returned)


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
        # Candidate order, and which candidates' shipped lists name a
        # vertex (in that order): what `touching` walks instead of the
        # whole side.
        self.rank = {v: i for i, v in enumerate(self.score)}
        self.naming: dict[Vertex, list[Vertex]] = {}
        for u, nbrs in self.edges.items():
            for x in nbrs:
                self.naming.setdefault(x, []).append(u)

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

    def touching(self, v: Vertex, own: Mapping[Vertex, float]):
        """``(u, w)`` for this side's unmarked candidates sharing an edge
        with the moved vertex ``v`` (whose shipped list is ``own``), in
        candidate order.  The weight is the one u's list gives, else v's
        — either endpoint may be the only one that sampled the edge."""
        touched = self.naming.get(v, ())
        unnamed = [u for u in own if u in self.edges and v not in self.edges[u]]
        if unnamed:
            touched = sorted(itertools.chain(touched, unnamed),
                             key=self.rank.__getitem__)
        for u in touched:
            if u not in self.marked:
                w = self.edges[u].get(v, 0.0) or own.get(u, 0.0)
                if w:
                    yield u, w

    def bump(self, v: Vertex, delta: float) -> None:
        self.score[v] += delta
        self.push(v)


def greedy_exchange(
    s_candidates: Sequence[Candidate],
    t_candidates: Sequence[Candidate],
    size_p: float,
    size_q: float,
    delta: float,
    vertex_sizes: Optional[Mapping[Vertex, float]] = None,
) -> ExchangeOutcome:
    """Jointly select S0 and T0 under the balance constraint.

    Args:
        s_candidates: p's shipped candidates (scores as *re-computed by q*
            — callers re-score before calling; see
            :func:`repro.core.partitioning.protocol.rescore_candidates`).
        t_candidates: q's own candidate set toward p.
        size_p: current load of p (actor count; or total actor size when
            ``vertex_sizes`` is given — the §4.2 extension).
        size_q: current load of q, same units.
        delta: imbalance tolerance (the paper's δ), same units.
        vertex_sizes: optional per-vertex sizes for the paper's
            different-actor-sizes extension; a missing vertex counts 1.

    Returns:
        :class:`ExchangeOutcome` with the accepted and returned vertices.
    """
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
            (v, score), moved, other = best_s, s_side, t_side  # type: ignore[misc]
            outcome.accepted.append(v)
            moved_to_q += vsize(v)
        else:
            (v, score), moved, other = best_t, t_side, s_side  # type: ignore[misc]
            outcome.returned.append(v)
            moved_to_p += vsize(v)
        moved.mark(v)
        outcome.estimated_gain += score
        # v left its side: neighbors it leaves behind gain 2w — their edge
        # to v flips from local to would-be-local at the destination;
        # neighbors on the other side (heading the opposite way) lose 2w.
        # Each side is bumped in candidate order: the pushes draw from the
        # sequence counter that breaks ties in that side's heap.
        own = moved.edges[v]
        for u, w in moved.touching(v, own):
            moved.bump(u, 2.0 * w)
        for u, w in other.touching(v, own):
            other.bump(u, -2.0 * w)
    return outcome
