"""Candidate-set selection (§4.2, "Determining the candidate set").

For every remote server q, the initiator p ranks its local vertices by
transfer score R_{p,q}(v) and keeps the top k with positive scores; the
candidate set is deliberately a small fraction of p's vertices, which is
how the algorithm bounds per-exchange migration volume (§4.1).  p then
targets the peer whose candidate set has the highest *total* score.
With actor sizes (the view's, §4.2) k is a budget on their total size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable

from .view import PartitionView

__all__ = ["Candidate", "candidate_set", "rank_peers", "PeerProposal"]

Vertex = Hashable
ServerId = int


@dataclass
class Candidate:
    """A vertex proposed for migration, with enough context for the
    receiver to re-score it: its sampled edge list and the proposer's
    belief about each endpoint's location."""

    vertex: Vertex
    score: float
    edges: dict[Vertex, float] = field(default_factory=dict)
    endpoint_locations: dict[Vertex, ServerId] = field(default_factory=dict)


@dataclass
class PeerProposal:
    """A ranked exchange opportunity: peer q plus p's candidate set S."""

    peer: ServerId
    candidates: list[Candidate]

    @property
    def total_score(self) -> float:
        return sum(c.score for c in self.candidates)


def _score_pass(view: PartitionView):
    """R_{p,q}(v) for every local v toward every peer q, in one walk.

    Each neighbour map is walked once and each endpoint located once,
    inline: an endpoint in ``view.edges`` is local, any other goes to
    ``view.resolve`` — what :meth:`PartitionView.locate` does, without
    its frame.  Per vertex, ``local`` accumulates the ``-w`` of local
    endpoints; peer q's running score starts from ``local`` at q's first
    incident edge and from then on takes every ``-w`` (local endpoint)
    and ``+w`` (endpoint at q) in edge order — the float sequence
    :func:`transfer_score` performs for the pair, so the scores are
    bit-identical to it.

    Returns per peer the positive ``(score, v)`` pairs in
    ``local_vertices()`` order.
    """
    me = view.server_id
    edges = view.edges
    resolve = view.resolve
    by_peer: dict[ServerId, list[tuple[float, Vertex]]] = {}
    for v, neighbors in edges.items():
        local = 0.0
        running: dict[ServerId, float] = {}
        for u, w in neighbors.items():
            loc = me if u in edges else resolve(u)
            if loc is None:
                continue
            if loc == me:
                local -= w
                for q in running:
                    running[q] -= w
            else:
                running[loc] = running.get(loc, local) + w
        for q, score in running.items():
            if score > 0:
                by_peer.setdefault(q, []).append((score, v))
    return by_peer


def _candidate(view: PartitionView, score: float, v: Vertex) -> Candidate:
    """v shipped with its edge list and the proposer's belief about each
    endpoint's location (the resolved ones, in edge order)."""
    neighbors = view.edges[v]
    locations = {u: loc for u in neighbors if (loc := view.locate(u)) is not None}
    return Candidate(v, score, dict(neighbors), locations)


def _top(view: PartitionView, scored, k: float) -> list[tuple[float, Vertex]]:
    """The best of one peer's scored vertices — the top k, or with sizes
    the highest adjusted scores that fit a total size of k."""
    sizes = view.sizes
    if sizes is None:
        return heapq.nlargest(k, scored, key=lambda sv: sv[0])
    penalty = view.migration_penalty
    top, used = [], 0.0
    for score, v in sorted(((score - penalty * sizes.get(v, 1.0), v)
                            for score, v in scored),
                           key=lambda sv: sv[0], reverse=True):
        size = sizes.get(v, 1.0)
        if score > 0 and used + size <= k:
            used += size
            top.append((score, v))
    return top


def candidate_set(view: PartitionView, target: ServerId, k: float) -> list[Candidate]:
    """Top-k positive-score local vertices for migration to ``target``
    (k a size budget when the view carries sizes), shipped with their
    edge lists and the proposer's location beliefs so the receiver can
    recompute scores against fresher knowledge (§4.2: q "may decide to
    reject some or even all of the vertices")."""
    if k <= 0:
        return []
    if target == view.server_id:
        raise ValueError("source and target servers must differ")
    return [_candidate(view, score, v)
            for score, v in _top(view, _score_pass(view).get(target, ()), k)]


def rank_peers(view: PartitionView, k: float) -> list[PeerProposal]:
    """All peers with a non-empty candidate set, best total score first.

    This is the order in which p attempts exchanges when peers reject
    (§4.2: "p attempts an exchange with a remote server which would lead
    to the second best cost reduction, and proceeds ...").  With sizes
    the penalty or the budget may leave a peer's set empty: it is skipped.
    """
    if k <= 0:
        return []
    by_peer = _score_pass(view)
    proposals = []
    for q in view.peers():
        if q in by_peer:
            candidates = [_candidate(view, score, v)
                          for score, v in _top(view, by_peer[q], k)]
            if candidates:
                proposals.append(PeerProposal(q, candidates))
    proposals.sort(key=lambda pr: pr.total_score, reverse=True)
    return proposals
