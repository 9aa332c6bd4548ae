"""The simulated cluster runtime: silos, network, client traffic.

This is the public entry point of the actor substrate — the piece that
plays Orleans' role in the reproduction — and the sim driver of
:class:`~repro.actor.core.ClusterCore`: it owns the simulator, the
modeled network, the cost model and the per-silo SEDA servers, and
exposes the measurement points the paper reports on top of the core's:
per-server CPU.

Client-side resilience (retry with backoff, end-to-end deadlines,
bounded admission with load shedding) is configured through a
:class:`~repro.faults.resilience.ResilienceConfig`; an absent layer adds
no event and no RNG draw, so seeded digests do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..faults.resilience import ResilienceConfig
from ..sim.engine import Simulator
from ..sim.network import BASE_LATENCY, Network
from .actor import DEFAULT_RESUME_COMPUTE
from .core import ClusterCore
from .messages import Message
from .serialization import SerializationModel
from .server import Silo

__all__ = ["ClusterConfig", "ActorRuntime"]


@dataclass
class ClusterConfig:
    """Cluster-wide knobs (defaults mirror the paper's testbed).

    The cost model's constants live with the layer that reads them:
    :mod:`repro.sim.cpu` (switch factor, dispatch overhead),
    :class:`~repro.actor.serialization.SerializationModel`,
    :mod:`repro.sim.network` (latency, jitter),
    :data:`~repro.actor.actor.DEFAULT_RESUME_COMPUTE`, and
    :mod:`repro.actor.core` / :mod:`repro.actor.directory` (client
    response size, location-cache capacity).

    Attributes:
        num_servers: silo count (the paper's cluster has 10).
        processors: cores per silo (8).
        time_scale: multiply every simulated duration (costs, network,
            waits) by this factor; drive the workload at rate/time_scale
            and the system sits at the *same* utilization with the same
            latency shape while simulating time_scale-fold fewer events.
            Benches report latencies divided back by time_scale.
        idle_collection_age: Orleans-style activation GC: silos drop
            actors idle this long (None = off).
        idle_collection_period: seconds between collection sweeps; must
            be positive and finite when collection is on.
        seed: root seed for every RNG substream.
    """

    num_servers: int = 10
    processors: int = 8
    time_scale: float = 1.0
    idle_collection_age: Optional[float] = None
    idle_collection_period: float = 30.0
    seed: int = 0


class ActorRuntime(ClusterCore):
    """An Orleans-like cluster over the discrete-event simulator."""

    name = "sim"

    def __init__(self, config: Optional[ClusterConfig] = None,
                 sim: Optional[Simulator] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 supervisor=None):
        super().__init__(config or ClusterConfig(), sim or Simulator(),
                         resilience, supervisor)
        ts = self.time_scale
        self.serialization = SerializationModel().scaled(ts)
        self.resume_compute = DEFAULT_RESUME_COMPUTE * ts
        self.network = Network(self.sim, self.rng,
                               base_latency=BASE_LATENCY * ts)
        self.silos = [Silo(self, i) for i in range(self.config.num_servers)]

    # ------------------------------------------------------------------
    # Driver hooks: the modeled client->host and control-plane hops
    # ------------------------------------------------------------------
    def _ingress(self, gateway: Silo, destination: int,
                 message: Message) -> None:
        self.network.deliver(message.size, self.silos[destination].deliver,
                             message, dst=destination)

    def send_control(self, size: int, callback: Callable[..., Any],
                     *args: Any) -> None:
        self.network.deliver(size, callback, *args)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Measurement hooks
    # ------------------------------------------------------------------
    def mean_cpu_utilization(self, busy_before: list[float], time_before: float) -> float:
        """Mean CPU utilization since a snapshot over the silos live now
        (a crashed silo is not capacity)."""
        utils = [
            silo.server.cpu.utilization(before, time_before)
            for silo, before in zip(self.silos, busy_before)
            if not silo.dead
        ]
        return sum(utils) / len(utils) if utils else 0.0

    def cpu_busy_snapshot(self) -> list[float]:
        return [silo.server.cpu.busy_time for silo in self.silos]
