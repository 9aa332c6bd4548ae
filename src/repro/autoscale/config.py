"""Configuration for the elastic autoscaling controller."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["AutoscaleConfig"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs for :class:`~repro.autoscale.controller.AutoscaleController`.

    The controller keeps cluster-mean CPU utilization inside the
    ``[low, high]`` band by adding silos (grow) or draining them
    (shrink), between ``min_silos`` and ``max_silos`` active.

    Attributes:
        period: seconds between control ticks (workload time units).
        low / high: target utilization band; below ``low`` the
            controller considers shrinking, above ``high`` growing.
        min_silos: floor of active silos.
        max_silos: ceiling of active silos; ``None`` means the cluster's
            ``num_servers`` (the fleet the runtime was built with is the
            provisioning ceiling — parked silos cost nothing).
        initial_silos: silos active at start; ``None`` starts with the
            whole fleet (no parking).
        cooldown: minimum seconds between scaling plans, so a plan's
            effect lands in the measurements before the next decision.
        warmup: seconds before the first control tick.

    A shrink drains its silo with
    :meth:`~repro.actor.core.ClusterCore.drain_silo`, which polls for
    quiescence every :data:`~repro.actor.core.DRAIN_POLL` seconds.
    """

    period: float = 2.0
    low: float = 0.35
    high: float = 0.70
    min_silos: int = 1
    max_silos: Optional[int] = None
    initial_silos: Optional[int] = None
    cooldown: float = 4.0
    warmup: float = 2.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if not 0.0 < self.low < self.high < 1.0:
            raise ValueError(
                f"need 0 < low < high < 1, got [{self.low}, {self.high}]")
        if self.min_silos < 1:
            raise ValueError("min_silos must be >= 1")
        if self.max_silos is not None and self.max_silos < self.min_silos:
            raise ValueError("max_silos must be >= min_silos")
        if self.initial_silos is not None and self.initial_silos < 1:
            raise ValueError("initial_silos must be >= 1")
        if self.cooldown < 0 or self.warmup < 0:
            raise ValueError("cooldown and warmup must be >= 0")
