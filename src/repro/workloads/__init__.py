"""The paper's workloads: Halo Presence (§3/§6.1), Heartbeat (§6.2), the
counter micro-app (§3), and Stageflow (an inference pipeline over
data-parallel actor pools, which the asyncio end-to-end workloads
drive)."""

from .counter import CounterActor, CounterConfig, CounterWorkload
from .halo import GameActor, HaloConfig, HaloWorkload, PlayerActor
from .heartbeat import (
    HeartbeatActor,
    HeartbeatConfig,
    HeartbeatWorkload,
    make_blocking_heartbeat,
)
from .stageflow import (
    PipelineActor,
    StageflowConfig,
    StageflowWorkload,
    StageSpec,
    StageWorkerActor,
)

__all__ = [
    "CounterActor",
    "CounterConfig",
    "CounterWorkload",
    "GameActor",
    "HaloConfig",
    "HaloWorkload",
    "HeartbeatActor",
    "HeartbeatConfig",
    "HeartbeatWorkload",
    "PipelineActor",
    "PlayerActor",
    "StageSpec",
    "StageWorkerActor",
    "StageflowConfig",
    "StageflowWorkload",
    "make_blocking_heartbeat",
]
