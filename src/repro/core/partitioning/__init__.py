"""Locality-aware actor partitioning (§4) — the paper's first contribution.

Pure algorithm layers (view → transfer scores → candidate sets → greedy
exchange → pairwise protocol), an offline driver for static-graph
analysis (Theorem 1, and the §4.2 actor-size extension), and the online
per-server agent that runs the protocol inside the simulated actor
runtime.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports
from .candidate import Candidate, PeerProposal, candidate_set, rank_peers
from .coordinator import PartitionAgent, PartitioningConfig
from .exchange import ExchangeOutcome, greedy_exchange
from .protocol import (
    ExchangeRequest,
    ExchangeResponse,
    handle_request,
    rescore_candidates,
)
from .transfer_score import transfer_score
from .view import PartitionView

if TYPE_CHECKING:
    from .offline import OfflinePartitioner

# The offline driver (and the graph tools it needs) loads on first access.
__getattr__ = lazy_exports(__name__, {".offline": ("OfflinePartitioner",)})

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
