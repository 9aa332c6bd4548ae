"""Standalone K-stage SEDA pipeline emulator.

§5.1 of the paper builds "a SEDA emulator with 6 stages" to demonstrate
that queue-length-threshold thread controllers oscillate (Fig. 7).  This
module is that emulator: an open-loop Poisson source feeds stage 1; each
request flows through all K stages in order, with per-stage compute and
(optionally) blocking-wait demands.  Controllers attach to the underlying
:class:`~repro.seda.server.StagedServer` and retune thread counts
periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..bench.metrics import LatencyRecorder
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from .server import StagedServer
from .stage import StageEvent

__all__ = ["StageProfile", "SedaEmulator"]

PROCESSORS = 8    # cores shared by all stages (the paper's testbed)


@dataclass(frozen=True)
class StageProfile:
    """Demand profile of one pipeline stage.

    Attributes:
        name: stage label.
        compute: mean on-CPU seconds per event (x_i).
        wait: mean blocking-wait seconds per event (w_i); 0 for pure-CPU
            stages (the paper's S0 set used to calibrate alpha).
        threads: initial thread-pool size.
    """

    name: str
    compute: float
    wait: float = 0.0
    threads: int = 1


class SedaEmulator:
    """An open-loop staged pipeline with exponential demands.

    Args:
        sim: driving simulator.
        profiles: per-stage demand profiles, in pipeline order.
        arrival_rate: Poisson request rate into stage 1.
        rng: RNG registry (streams: ``seda.arrivals``, ``seda.service``).
        deterministic_service: if True, use the mean demands exactly
            (useful for analytical cross-checks); otherwise exponential.
    """

    def __init__(
        self,
        sim: Simulator,
        profiles: Sequence[StageProfile],
        arrival_rate: float,
        rng: Optional[RngRegistry] = None,
        deterministic_service: bool = False,
    ):
        if not profiles:
            raise ValueError("need at least one stage profile")
        self.sim = sim
        self.profiles = list(profiles)
        self.arrival_rate = arrival_rate
        self.deterministic_service = deterministic_service
        rng = rng or RngRegistry(0)
        self._arrival_rng = rng.stream("seda.arrivals")
        self._service_rng = rng.stream("seda.service")

        self.server = StagedServer(sim, processors=PROCESSORS, name="emulator")
        for profile in self.profiles:
            self.server.add_stage(
                profile.name, threads=profile.threads, blocking=profile.wait > 0
            )
        self.latency = LatencyRecorder()
        self.completed = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Source
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin generating requests."""
        self._stopped = False
        self._schedule_arrival()

    def stop(self) -> None:
        """Stop generating new requests (in-flight ones drain)."""
        self._stopped = True

    def _schedule_arrival(self) -> None:
        if self._stopped:
            return
        gap = self._arrival_rng.expovariate(self.arrival_rate)
        self.sim.defer(gap, self._arrive)

    def _arrive(self) -> None:
        self._schedule_arrival()
        self._enter_stage(0, self.sim.now)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def _demand(self, mean: float) -> float:
        if mean <= 0:
            return 0.0
        if self.deterministic_service:
            return mean
        return self._service_rng.expovariate(1.0 / mean)

    def _enter_stage(self, index: int, start_time: float) -> None:
        profile = self.profiles[index]
        stage = self.server.stage(profile.name)
        stage.submit(
            self._demand(profile.compute),
            self._stage_done,
            index,
            start_time,
            wait=self._demand(profile.wait),
        )

    def _stage_done(self, event: StageEvent, index: int, start_time: float) -> None:
        nxt = index + 1
        if nxt < len(self.profiles):
            self._enter_stage(nxt, start_time)
        else:
            self.completed += 1
            self.latency.record(self.sim.now - start_time)

    # ------------------------------------------------------------------
    # Observation helpers for controller experiments (Fig. 7)
    # ------------------------------------------------------------------
    def queue_lengths(self) -> dict[str, int]:
        return {p.name: self.server.stage(p.name).queue_length for p in self.profiles}

    def thread_allocation(self) -> dict[str, int]:
        return self.server.thread_allocation()
