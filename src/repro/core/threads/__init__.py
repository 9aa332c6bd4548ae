"""Latency-optimized thread allocation (§5) — the paper's second
contribution: the SEDA queuing model, Theorem 2's closed-form solver,
runtime parameter estimation, and the two controllers (ActOp's
model-based one and the queue-length baseline it replaces)."""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports
from .estimator import (
    MeasuredStage,
    estimate_alpha,
    estimate_stage_loads,
    estimate_stage_loads_direct,
    measure_windows,
)
from .model import ThreadAllocationProblem
from .optimizer import (
    grid_search,
    integerize,
    solve_closed_form,
    solve_fractional,
    solve_integer,
    solve_numeric,
)

if TYPE_CHECKING:
    from .controller import ModelBasedController, QueueLengthController

# The controllers load on first access: they import the event types to
# record every allocation, which a run without thread allocation skips.
__getattr__ = lazy_exports(__name__, {
    ".controller": ("ModelBasedController", "QueueLengthController"),
})

__all__ = [
    "MeasuredStage",
    "ModelBasedController",
    "QueueLengthController",
    "ThreadAllocationProblem",
    "estimate_alpha",
    "estimate_stage_loads",
    "estimate_stage_loads_direct",
    "grid_search",
    "integerize",
    "measure_windows",
    "solve_closed_form",
    "solve_fractional",
    "solve_integer",
    "solve_numeric",
]
