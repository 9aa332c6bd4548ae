"""Locality-aware actor partitioning (§4) — the paper's first contribution.

Pure algorithm layers (view → transfer scores → candidate sets → greedy
exchange → pairwise protocol), an offline driver for static-graph
analysis (Theorem 1, and the §4.2 actor-size extension), and the online
per-server agent that runs the protocol inside the simulated actor
runtime.
"""

from .candidate import Candidate, PeerProposal, candidate_set, rank_peers
from .coordinator import PartitionAgent, PartitioningConfig
from .exchange import ExchangeOutcome, greedy_exchange
from .offline import OfflinePartitioner
from .protocol import (
    ExchangeRequest,
    ExchangeResponse,
    handle_request,
    rescore_candidates,
)
from .transfer_score import transfer_score
from .view import PartitionView

__all__ = [
    "Candidate",
    "ExchangeOutcome",
    "ExchangeRequest",
    "ExchangeResponse",
    "OfflinePartitioner",
    "PartitionAgent",
    "PartitionView",
    "PartitioningConfig",
    "PeerProposal",
    "candidate_set",
    "greedy_exchange",
    "handle_request",
    "rank_peers",
    "rescore_candidates",
    "transfer_score",
]
