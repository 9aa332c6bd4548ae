"""Queueing-theory substrate: the Jackson latency proxy (Eq. (1)) the
thread-allocation optimizer minimizes, over measured per-stage rates."""

from .jackson import (
    StageLoad,
    jackson_latency,
    jackson_latency_with_penalty,
    mm1_mean_latency,
)

__all__ = [
    "StageLoad",
    "jackson_latency",
    "jackson_latency_with_penalty",
    "mm1_mean_latency",
]
