"""Inter-server network model.

The paper's clusters sit on a single datacenter LAN; Figure 4 shows the
network contributes ~1% of end-to-end latency.  What makes remote calls
expensive is the *serialization CPU work* charged in the send/receive
stages (modeled in :mod:`repro.actor.serialization`), not the wire.  The
network model is therefore simple: a base propagation latency plus
lognormal jitter, with deterministic per-link substreams.
"""

from __future__ import annotations

from math import exp
from typing import Any, Callable, Optional

from .engine import Simulator
from .rng import RngRegistry

__all__ = ["Network"]

BASE_LATENCY = 0.0005   # one-way seconds, typical intra-datacenter
JITTER = 0.1            # lognormal sigma of the multiplicative jitter


class Network:
    """Point-to-point message delivery with latency and jitter.

    Args:
        sim: the driving simulator.
        rng: registry for the jitter substream.
        base_latency: one-way propagation + switching delay in seconds
            (a cluster scales :data:`BASE_LATENCY` by its time scale).
        jitter: multiplicative lognormal sigma; 0 disables jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        base_latency: float = BASE_LATENCY,
        jitter: float = JITTER,
    ):
        self.sim = sim
        self.base_latency = base_latency
        self.jitter = jitter
        self._rng = rng.stream("network.jitter")
        self.messages_sent = 0
        self.bytes_sent = 0
        # Optional fault hook (a repro.faults.injector.LinkFaultModel);
        # installed only when a fault plan has network actions, so the
        # plain path below stays byte-identical for fault-free runs.
        self.faults = None

    def latency(self) -> float:
        """Draw a one-way delivery latency."""
        if self.jitter <= 0:
            return self.base_latency
        return self.base_latency * self._rng.lognormvariate(0.0, self.jitter)

    def deliver(
        self,
        size_bytes: int,
        callback: Callable[..., Any],
        *args: Any,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> float:
        """Deliver a message: fire ``callback(*args)`` after one latency draw.

        ``src``/``dst`` identify the link endpoints (silo ids; ``None``
        means the client side) so an installed fault model can target
        specific links.  Returns the drawn latency.
        """
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if self.faults is not None:
            return self.faults.transmit(size_bytes, callback, args, src, dst)
        jitter = self.jitter
        if jitter <= 0:
            latency = self.base_latency
        else:
            # latency() inlined: lognormvariate(0, s) is exp(normalvariate(0, s)),
            # so this is the same draw and the same float.
            latency = self.base_latency * exp(self._rng.normalvariate(0.0, jitter))
        self.sim.defer(latency, callback, *args)
        return latency
