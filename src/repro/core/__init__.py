"""The paper's contribution: locality-aware actor partitioning (§4),
latency-optimized thread allocation (§5), and the integrated ActOp
runtime optimizer (§6)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .actop import ActOp, ActOpConfig, ThreadControllerConfig
from .partitioning import PartitionAgent, PartitioningConfig

if TYPE_CHECKING:
    from .partitioning.offline import OfflinePartitioner
    from .threads.controller import ModelBasedController, QueueLengthController
    from .threads.model import ThreadAllocationProblem

# The offline partitioner and the thread-allocation layer load on first
# access: a run with thread allocation off never imports them.
__getattr__ = lazy_exports(__name__, {
    ".partitioning.offline": ("OfflinePartitioner",),
    ".threads.controller": ("ModelBasedController", "QueueLengthController"),
    ".threads.model": ("ThreadAllocationProblem",),
})

__all__ = [
    "ActOp",
    "ActOpConfig",
    "ModelBasedController",
    "OfflinePartitioner",
    "PartitionAgent",
    "PartitioningConfig",
    "QueueLengthController",
    "ThreadAllocationProblem",
    "ThreadControllerConfig",
]
