"""Graph substrate: communication graphs, Space-Saving edge sampling,
synthetic generators, quality metrics, and the comparator partitioners
(centralized multilevel and Ja-Be-Ja)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .spacesaving import SpaceSaving

if TYPE_CHECKING:
    from .comm_graph import CommGraph
    from .generators import (
        clustered_graph,
        grid_graph,
        power_law_graph,
        random_graph,
        ring_of_cliques,
    )
    from .jabeja import JabejaResult, jabeja_partition
    from .multilevel import multilevel_partition
    from .quality import (
        cut_cost,
        is_balanced,
        max_imbalance,
        partition_sizes,
        remote_fraction,
    )
    from .streaming import STREAMING_HEURISTICS, streaming_partition

# The online partitioner's edge summary is eager; the offline graph
# tools load on first access.
__getattr__ = lazy_exports(__name__, {
    ".comm_graph": ("CommGraph",),
    ".generators": ("clustered_graph", "grid_graph", "power_law_graph",
                    "random_graph", "ring_of_cliques"),
    ".jabeja": ("JabejaResult", "jabeja_partition"),
    ".multilevel": ("multilevel_partition",),
    ".quality": ("cut_cost", "is_balanced", "max_imbalance", "partition_sizes",
                 "remote_fraction"),
    ".streaming": ("STREAMING_HEURISTICS", "streaming_partition"),
})

__all__ = [
    "CommGraph",
    "JabejaResult",
    "SpaceSaving",
    "clustered_graph",
    "cut_cost",
    "grid_graph",
    "is_balanced",
    "jabeja_partition",
    "max_imbalance",
    "multilevel_partition",
    "partition_sizes",
    "power_law_graph",
    "random_graph",
    "remote_fraction",
    "ring_of_cliques",
    "STREAMING_HEURISTICS",
    "streaming_partition",
]
