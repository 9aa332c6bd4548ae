"""ActOp: the integrated optimization framework (§6.3).

Attaches the paper's two mechanisms to a running cluster:

* a :class:`~repro.core.partitioning.coordinator.PartitionAgent` per silo
  (locality-aware actor partitioning, §4), and
* a :class:`~repro.core.threads.controller.ModelBasedController` per silo
  (latency-optimized thread allocation, §5).

Either can be enabled alone — the evaluation benches exercise all three
combinations, mirroring Figs. 10, 11(a) and 11(b).

Configuration goes through :class:`ActOpConfig`, one of the layered
configs consumed by :func:`repro.cluster.build_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..actor.core import ClusterCore
from .partitioning.coordinator import PartitionAgent, PartitioningConfig

if TYPE_CHECKING:
    from .threads.controller import ModelBasedController

__all__ = ["ThreadControllerConfig", "ActOpConfig", "ActOp"]


@dataclass
class ThreadControllerConfig:
    """Per-silo model-based thread controller knobs (§5)."""

    eta: float = 1e-4          # the paper calibrates 100 µs/thread
    period: float = 10.0


@dataclass
class ActOpConfig:
    """What the ActOp optimizer runs: partitioning, threads, or both.

    ``None`` for a field disables that mechanism; an all-``None`` config
    (``enabled`` False) means "no optimizer" and is what
    :func:`repro.cluster.build_cluster` treats as "don't build one".
    """

    partitioning: Optional[PartitioningConfig] = None
    thread_allocation: Optional[ThreadControllerConfig] = None

    @property
    def enabled(self) -> bool:
        return (self.partitioning is not None
                or self.thread_allocation is not None)


class ActOp:
    """The runtime optimizer: partitioning + thread allocation."""

    def __init__(
        self,
        runtime: ClusterCore,
        config: Optional[ActOpConfig] = None,
    ):
        if config is None or not config.enabled:
            raise ValueError("enable at least one of the two optimizations")
        self.config = config
        self.runtime = runtime
        self.agents: list[PartitionAgent] = []
        self.controllers: list[ModelBasedController] = []

        if config.partitioning is not None:
            for silo in runtime.silos:
                self.agents.append(
                    PartitionAgent(runtime, silo, config.partitioning))
            peer_map = {agent.silo.server_id: agent for agent in self.agents}
            for agent in self.agents:
                agent.peers = peer_map

        if config.thread_allocation is not None:
            from .threads.controller import ModelBasedController

            cfg = config.thread_allocation
            self.controllers = [
                ModelBasedController(runtime.sim, silo.server, eta=cfg.eta,
                                     period=cfg.period, runtime=runtime)
                for silo in runtime.silos
            ]

    def start(self) -> None:
        for agent in self.agents:
            agent.start()
        for controller in self.controllers:
            controller.start()

    def stop(self) -> None:
        for agent in self.agents:
            agent.stop()
        for controller in self.controllers:
            controller.stop()
