"""The counter micro-application (§3, Figs. 4 and 5).

"We run a simple counter application where in response to a client
request an actor increments a counter.  We invoke 15K requests/sec on 8K
actors."  One actor type, no actor-to-actor calls — the workload isolates
the single-server SEDA pipeline, which is exactly what the latency-
breakdown (Fig. 4) and thread-allocation-heatmap (Fig. 5) experiments
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..actor.actor import Actor
from ..actor.runtime import ActorRuntime

__all__ = ["CounterActor", "CounterWorkload", "CounterConfig"]

NUM_ACTORS = 8_000      # paper: 8K counters
REQUEST_SIZE = 128
RESPONSE_SIZE = 64


class CounterActor(Actor):
    """Holds one integer; increments on request."""

    COMPUTE = {"increment": 60e-6}

    def __init__(self) -> None:
        super().__init__()
        self.value = 0

    def increment(self, amount: int = 1) -> int:
        self.value += amount
        return self.value


@dataclass
class CounterConfig:
    """Workload shape (paper: 15_000 req/s over :data:`NUM_ACTORS`
    counters; message sizes are the module's constants)."""

    request_rate: float = 15_000.0


class CounterWorkload:
    """Open-loop Poisson client requests to uniformly random counters."""

    ACTOR_TYPE = "counter"

    def __init__(self, runtime: ActorRuntime, config: Optional[CounterConfig] = None):
        self.runtime = runtime
        self.config = config or CounterConfig()
        if self.ACTOR_TYPE not in runtime.actor_types:
            runtime.register_actor(self.ACTOR_TYPE, CounterActor)
        self._arrival_rng = runtime.rng.stream("counter.arrivals")
        self._target_rng = runtime.rng.stream("counter.targets")
        self._running = False
        self.requests_issued = 0

    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        gap = self._arrival_rng.expovariate(self.config.request_rate)
        self.runtime.sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        self._schedule_next()
        key = self._target_rng.randrange(NUM_ACTORS)
        ref = self.runtime.ref(self.ACTOR_TYPE, key)
        self.requests_issued += 1
        self.runtime.client_request(
            ref,
            "increment",
            1,
            size=REQUEST_SIZE,
            response_size=RESPONSE_SIZE,
            # An increment is NOT replay-safe: a retried request would
            # double-count.  Declaring it keeps idempotent-only retry
            # policies from ever replaying one.
            idempotent=False,
        )
