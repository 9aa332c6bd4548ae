"""The Heartbeat benchmark (§6.2).

"Heartbeat implements a simple monitoring service which maintains the
status periodically updated by the client.  This workload is similar in
its call pattern to many popular services built with Orleans, like
running statistics, aggregates or standing queries."  Single actor type,
single server, high request rates (10K / 12.5K / 15K in Fig. 11a) —
the workload that evaluates the thread-allocation optimization alone.

Monitors optionally perform a synchronous blocking wait per beat
(``io_wait``) to model the legacy synchronous-I/O libraries §5.2 insists
the controller must support; the estimator then has to infer beta < 1
for the worker stage through the alpha trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..actor.actor import Actor
from ..actor.runtime import ActorRuntime

__all__ = ["HeartbeatActor", "HeartbeatWorkload", "HeartbeatConfig"]

STATUS_FRACTION = 0.1   # share of requests that are reads
REQUEST_SIZE = 192      # bytes of a beat (a status read sends half)
RESPONSE_SIZE = 64


class HeartbeatActor(Actor):
    """Stores the latest status beat for one monitored entity."""

    COMPUTE = {"beat": 115e-6, "status": 45e-6}
    WAIT: dict[str, float] = {}

    def __init__(self) -> None:
        super().__init__()
        self.last_status: object = None
        self.beats = 0

    def beat(self, status: object) -> int:
        # Replay-safe: the status write is last-writer-wins and ``beats``
        # is only a liveness diagnostic, so a retried beat converges.
        self.last_status = status
        self.beats += 1
        return self.beats

    def status(self) -> object:
        return self.last_status


def make_blocking_heartbeat(io_wait: float) -> type[HeartbeatActor]:
    """A HeartbeatActor variant whose ``beat`` blocks ``io_wait`` seconds
    on a synchronous call (legacy I/O), exercising the beta < 1 path."""

    class BlockingHeartbeatActor(HeartbeatActor):
        WAIT = {"beat": io_wait}

    BlockingHeartbeatActor.__name__ = f"BlockingHeartbeatActor_{io_wait:g}"
    return BlockingHeartbeatActor


@dataclass
class HeartbeatConfig:
    """Workload shape (Fig. 11a sweeps request_rate over 10K/12.5K/15K);
    the read share and message sizes are the module's constants."""

    num_monitors: int = 4_000
    request_rate: float = 15_000.0
    io_wait: float = 0.0           # synchronous blocking seconds per beat


class HeartbeatWorkload:
    """Open-loop client beats (and occasional reads) to random monitors."""

    ACTOR_TYPE = "heartbeat"

    def __init__(self, runtime: ActorRuntime, config: Optional[HeartbeatConfig] = None):
        self.runtime = runtime
        self.config = config or HeartbeatConfig()
        if self.ACTOR_TYPE not in runtime.actor_types:
            cls = (
                make_blocking_heartbeat(self.config.io_wait)
                if self.config.io_wait > 0
                else HeartbeatActor
            )
            runtime.register_actor(self.ACTOR_TYPE, cls)
        self._arrival_rng = runtime.rng.stream("heartbeat.arrivals")
        self._target_rng = runtime.rng.stream("heartbeat.targets")
        self.requests_issued = 0

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._arrival_rng.expovariate(self.config.request_rate)
        self.runtime.sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        self._schedule_next()
        key = self._target_rng.randrange(self.config.num_monitors)
        ref = self.runtime.ref(self.ACTOR_TYPE, key)
        self.requests_issued += 1
        if self._target_rng.random() < STATUS_FRACTION:
            self.runtime.client_request(
                ref, "status",
                size=REQUEST_SIZE // 2, response_size=RESPONSE_SIZE,
            )
        else:
            self.runtime.client_request(
                ref, "beat", self.requests_issued,
                size=REQUEST_SIZE, response_size=RESPONSE_SIZE,
            )
