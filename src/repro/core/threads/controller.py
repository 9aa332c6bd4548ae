"""Runtime thread controllers.

Two controllers retune a :class:`~repro.seda.server.StagedServer`
periodically:

* :class:`QueueLengthController` — the prior art the paper argues against
  (§5.1, after Welsh [34]): every period, any stage with queue length
  above Th gets one more thread, below Tl loses one.  Fig. 7 shows why
  this oscillates: queue length responds to capacity through the wildly
  non-linear rho/(1-rho).

* :class:`ModelBasedController` — ActOp's controller: sample per-stage
  (lambda, z, x), estimate (s, beta) via the alpha trick (§5.4), solve
  problem (*) (§5.3), integerize, apply.  A single global solve replaces
  per-stage local feedback, which is what kills the fluctuations.
"""

from __future__ import annotations

from ...bench.metrics import TimeSeries
from ...obs.events import ThreadAllocationEvent
from ...seda.server import StagedServer
from ...sim.engine import Simulator
from .estimator import estimate_alpha, estimate_stage_loads, measure_windows
from .model import ThreadAllocationProblem
from .optimizer import integerize, solve_fractional

__all__ = ["QueueLengthController", "ModelBasedController"]


class _PeriodicController:
    """Shared machinery: periodic ticks + history recording."""

    def __init__(self, sim: Simulator, server: StagedServer, period: float):
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.server = server
        self.period = period
        self.queue_history: dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in server.stages
        }
        self.thread_history: dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in server.stages
        }
        self.ticks = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.schedule(self.period, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._record()
        self._control()
        self.sim.schedule(self.period, self._tick)

    def _record(self) -> None:
        now = self.sim.now
        for name, stage in self.server.stages.items():
            self.queue_history[name].record(now, stage.queue_length)
            self.thread_history[name].record(now, stage.threads)

    def _control(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class QueueLengthController(_PeriodicController):
    """Threshold feedback on queue lengths (the [34]-style baseline).

    Args:
        sim, server: the controlled server.
        period: control interval (the paper's emulator uses 30 s).
        high_threshold: queue length above which a stage gains a thread (Th).
        low_threshold: queue length below which a stage loses one (Tl).
    """

    def __init__(
        self,
        sim: Simulator,
        server: StagedServer,
        period: float = 30.0,
        high_threshold: int = 100,
        low_threshold: int = 10,
    ):
        super().__init__(sim, server, period)
        if low_threshold >= high_threshold:
            raise ValueError("need low_threshold < high_threshold")
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold

    def _control(self) -> None:
        for stage in self.server.stages.values():
            qlen = stage.queue_length
            if qlen > self.high_threshold:
                stage.set_threads(stage.threads + 1)
            elif qlen < self.low_threshold and stage.threads > 1:
                stage.set_threads(stage.threads - 1)


class ModelBasedController(_PeriodicController):
    """ActOp's controller: estimate, solve (*), apply (§5.3–5.4).

    The controller holds its own counter snapshot of ``server`` and
    takes the alpha-calibration set S0 from the stages themselves: every
    stage not declared ``blocking``.

    Args:
        sim, server: the controlled server.
        eta: thread-penalty coefficient (calibrated once; §6.2 uses
            100 µs/thread).
        period: re-optimization interval.
        min_events: skip a tick whose busiest stage completed fewer
            events than this (too noisy to fit).
        runtime: the cluster runtime hosting ``server``, if any; each
            decision goes to ``runtime.obs`` when one is attached at the
            time it is made.
    """

    def __init__(
        self,
        sim: Simulator,
        server: StagedServer,
        eta: float = 1e-4,
        period: float = 10.0,
        min_events: int = 50,
        runtime=None,
    ):
        super().__init__(sim, server, period)
        self.eta = eta
        self.min_events = min_events
        self.runtime = runtime
        self.allocations: list[ThreadAllocationEvent] = []
        self._snapshot = None

    def start(self) -> None:
        self._snapshot = self.server.snapshot()
        super().start()

    def _control(self) -> None:
        server = self.server
        windows = server.windows_since(self._snapshot)
        self._snapshot = server.snapshot()
        if max(w.completions for w in windows.values()) < self.min_events:
            return
        measured = measure_windows(
            windows,
            [name for name, stage in server.stages.items() if stage.blocking],
        )
        loads = estimate_stage_loads(measured)
        alpha = estimate_alpha(measured)
        problem = ThreadAllocationProblem(
            stages=loads, processors=server.cpu.processors, eta=self.eta
        )
        if not problem.is_feasible():
            # Overloaded: fall back to CPU-proportional shares (min 1 each).
            self._apply(self._proportional_fallback(problem), alpha, feasible=False)
            return
        fractional = solve_fractional(problem)
        if fractional is None:
            return
        integral = integerize(problem, fractional)
        self._apply({load.name: t for load, t in zip(loads, integral)},
                    alpha, feasible=True)

    def _proportional_fallback(self, problem: ThreadAllocationProblem) -> dict[str, int]:
        demands = {
            s.name: s.arrival_rate * s.cpu_fraction / s.service_rate_per_thread
            for s in problem.stages
        }
        total = sum(demands.values()) or 1.0
        budget = problem.processors
        return {
            name: max(1, round(budget * d / total))
            for name, d in demands.items()
        }

    def _apply(self, allocation: dict[str, int], alpha: float, feasible: bool) -> None:
        self.server.apply_allocation(allocation)
        event = ThreadAllocationEvent(
            self.sim.now, server=self.server.name, allocation=allocation,
            alpha=alpha, feasible=feasible, controller="model")
        self.allocations.append(event)
        obs = self.runtime.obs if self.runtime is not None else None
        if obs is not None:
            obs.events.emit(event)
