"""Estimating model parameters from runtime measurements (§5.4).

The optimizer needs lambda_i, s_i and beta_i per stage, but a production
runtime can only measure

* z_i — wall-clock time processing one event (thread held), and
* x_i — on-CPU time (cycle counters),

while ready time r_i (runnable, no core) and blocking wait w_i are
invisible without OS tracing support.  The paper's trick: assume the OS
scheduler is fair, so the ratio alpha = r_i / x_i is the same for every
stage; calibrate alpha on the stages known to never block (S0, where
beta = 1 and hence r = z - x); then for every stage

    r_i = alpha * x_i,   s_i = 1 / (z_i - r_i),   beta_i = x_i / (z_i - r_i).

This module implements exactly that, deliberately *not* peeking at the
simulator's ground-truth ready times (tests compare against them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ...queueing.jackson import StageLoad
from ...seda.stage import StatsWindow

__all__ = [
    "MeasuredStage",
    "estimate_alpha",
    "estimate_stage_loads",
    "estimate_stage_loads_direct",
    "measure_windows",
]

# Floor on an estimated x_i + w_i, guarding the division when a window
# catches only sub-microsecond events.
MIN_SERVICE_TIME = 1e-7


@dataclass(frozen=True)
class MeasuredStage:
    """What the runtime can observe about one stage over a window.

    ``mean_wait`` is the directly-measured blocking time per event; it is
    only available "on platforms that provide direct OS support for
    measuring I/O blocking time (such as ETW)" (§5.4) and defaults to
    None — the alpha estimator never needs it.
    """

    name: str
    arrival_rate: float  # lambda_i
    mean_z: float        # wall-clock per event
    mean_x: float        # CPU time per event
    blocking: bool       # whether the stage may issue synchronous calls
    mean_wait: Optional[float] = None  # measured w_i (ETW mode only)

    def __post_init__(self) -> None:
        if self.mean_x < 0 or self.mean_z < 0:
            raise ValueError(f"negative times for stage {self.name!r}")


def measure_windows(
    windows: Mapping[str, StatsWindow],
    blocking_stages: Sequence[str] = (),
    os_wait_tracing: bool = False,
) -> list[MeasuredStage]:
    """Convert per-stage sampling windows into measurements.

    ``blocking_stages`` names the stages that may block on synchronous
    calls; the complement is the paper's S0 calibration set.  With
    ``os_wait_tracing`` the measured per-event blocking time is included
    (the §5.4 ETW alternative); the default leaves it hidden, as on the
    paper's target platforms.
    """
    blocking = set(blocking_stages)
    return [
        MeasuredStage(
            name=name,
            arrival_rate=w.arrival_rate,
            mean_z=w.mean_z,
            mean_x=w.mean_x,
            blocking=name in blocking,
            mean_wait=w.mean_wait if os_wait_tracing else None,
        )
        for name, w in windows.items()
    ]


def estimate_alpha(measured: Sequence[MeasuredStage]) -> float:
    """alpha = mean over S0 of (z - x) / x.

    On S0 stages w = 0, so z - x is pure ready time.  Stages with no
    completed events (x == 0) are skipped.  Returns 0.0 when no usable S0
    stage exists (an idle server: no contention, so r ≈ 0 anyway).
    """
    ratios = []
    for m in measured:
        if m.blocking or m.mean_x <= 0:
            continue
        ratios.append(max(0.0, m.mean_z - m.mean_x) / m.mean_x)
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def estimate_stage_loads(measured: Sequence[MeasuredStage]) -> list[StageLoad]:
    """Derive (lambda_i, s_i, beta_i) for every stage via the alpha trick.

    Stages that recorded no events keep a nominal tiny load so the
    optimizer can still hand them their minimum thread.

    Args:
        measured: per-stage runtime measurements.
    """
    alpha = estimate_alpha(measured)
    loads = []
    for m in measured:
        if m.mean_x <= 0:
            # Idle stage: expose zero arrivals; optimizer gives it the floor.
            loads.append(StageLoad(0.0, 1.0 / MIN_SERVICE_TIME, 1.0, name=m.name))
            continue
        ready = alpha * m.mean_x
        # Estimated x + w.  Clamp below by x (w cannot be negative) to
        # absorb alpha overestimation on lightly-contended stages.
        busy = max(m.mean_z - ready, m.mean_x, MIN_SERVICE_TIME)
        service_rate = 1.0 / busy
        beta = min(1.0, m.mean_x / busy)
        loads.append(
            StageLoad(m.arrival_rate, service_rate, max(beta, 1e-6), name=m.name)
        )
    return loads


def estimate_stage_loads_direct(
    measured: Sequence[MeasuredStage],
) -> list[StageLoad]:
    """The §5.4 alternative for platforms with OS wait tracing (ETW):
    with w_i measured directly, s_i = 1/(x_i + w_i) and
    beta_i = x_i/(x_i + w_i) need no inference at all.

    Raises:
        ValueError: if any loaded stage lacks a measured wait (the caller
            forgot ``os_wait_tracing=True`` in :func:`measure_windows`).
    """
    loads = []
    for m in measured:
        if m.mean_x <= 0:
            loads.append(StageLoad(0.0, 1.0 / MIN_SERVICE_TIME, 1.0, name=m.name))
            continue
        if m.mean_wait is None:
            raise ValueError(
                f"stage {m.name!r} has no measured wait; direct estimation "
                "requires os_wait_tracing"
            )
        busy = max(m.mean_x + m.mean_wait, MIN_SERVICE_TIME)
        loads.append(
            StageLoad(
                m.arrival_rate,
                1.0 / busy,
                max(min(1.0, m.mean_x / busy), 1e-6),
                name=m.name,
            )
        )
    return loads
