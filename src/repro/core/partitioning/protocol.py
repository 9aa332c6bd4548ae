"""Pairwise coordination protocol (Algorithm 1).

The five steps of the paper's Alg. 1, as pure logic over
:class:`~repro.core.partitioning.view.PartitionView`:

1. p sends q an :class:`ExchangeRequest` with candidate set S (one
   :func:`repro.core.partitioning.candidate.rank_peers` pass scores
   every peer at once);
2. q rejects if it exchanged recently (cooldown) — decided by the host
   before q builds a view, since most requests in a busy cluster end
   there;
3. otherwise q builds its own candidate set T toward p, re-scores p's
   shipped candidates against its fresher knowledge
   (:func:`rescore_candidates`), and
4. runs the greedy two-heap procedure to pick S0 and T0
   (:func:`handle_request`);
5. the transport layer then migrates T0 to p and notifies p of S0.

Transport (who carries the messages, with what latency) and the cooldown
clock are the host's job — the online coordinator uses the simulated
control plane and sim time; the offline driver has no cooldown and calls
these functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .candidate import Candidate, candidate_set
from .exchange import ExchangeOutcome, greedy_exchange
from .transfer_score import transfer_score
from .view import PartitionView

__all__ = [
    "ExchangeRequest",
    "ExchangeResponse",
    "rescore_candidates",
    "handle_request",
]

Vertex = Hashable
ServerId = int


@dataclass
class ExchangeRequest:
    """Step 1: p's proposal to q."""

    initiator: ServerId
    target: ServerId
    candidates: list[Candidate]
    initiator_size: float  # p's load as p knows it, for q's balance check


@dataclass
class ExchangeResponse:
    """Steps 2-4: q's decision."""

    accepted: bool
    outcome: Optional[ExchangeOutcome] = None
    rejection_reason: str = ""


def rescore_candidates(
    view_q: PartitionView, request: ExchangeRequest
) -> list[Candidate]:
    """Re-evaluate p's candidates with q's knowledge (§4.2).

    The graph may have changed since p sampled it, and p's view was
    partial; q therefore recomputes each R_{p,q}(v) from the shipped edge
    list, resolving endpoint locations with its own knowledge first and
    falling back to p's shipped beliefs.  With sizes the score pays the
    same migration penalty p's did.
    """
    sizes = view_q.sizes
    penalty = view_q.migration_penalty

    def locate(u: Vertex, shipped: dict[Vertex, ServerId]) -> Optional[ServerId]:
        loc = view_q.locate(u)
        if loc is not None:
            return loc
        return shipped.get(u)

    rescored = []
    for cand in request.candidates:
        score = transfer_score(
            cand.edges,
            lambda u, shipped=cand.endpoint_locations: locate(u, shipped),
            request.initiator,
            view_q.server_id,
        )
        if sizes is not None:
            score -= penalty * sizes.get(cand.vertex, 1.0)
        rescored.append(
            Candidate(cand.vertex, score, cand.edges, cand.endpoint_locations)
        )
    return rescored


def handle_request(
    view_q: PartitionView,
    request: ExchangeRequest,
    k: float,
    delta: float,
) -> ExchangeResponse:
    """q's side of Alg. 1 (steps 3-4); the caller has applied the cooldown."""
    if request.target != view_q.server_id:
        return ExchangeResponse(accepted=False, rejection_reason="misrouted")

    s_rescored = rescore_candidates(view_q, request)
    t_candidates = candidate_set(view_q, request.initiator, k)
    outcome = greedy_exchange(
        s_rescored,
        t_candidates,
        size_p=request.initiator_size,
        size_q=view_q.size,
        delta=delta,
        vertex_sizes=view_q.sizes,
    )
    return ExchangeResponse(accepted=True, outcome=outcome)
