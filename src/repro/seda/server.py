"""A staged (SEDA) server: shared processors + named stages.

This is the generic chassis used both by the Orleans-style actor server
(:mod:`repro.actor.server`) and by the standalone pipeline emulator
(:mod:`repro.seda.emulator`).  It owns the CPU pool, the stage registry,
and the windowed-sampling machinery that controllers consume.
"""

from __future__ import annotations

from typing import Mapping

from ..sim.cpu import CpuPool
from ..sim.engine import Simulator
from .stage import Stage, StatsWindow

__all__ = ["StagedServer"]


class StagedServer:
    """A server made of SEDA stages sharing one processor pool.

    Args:
        sim: driving simulator.
        processors: number of cores (the paper's testbed uses 8).
        switch_factor: per-excess-thread compute inflation (see
            :class:`~repro.sim.cpu.CpuPool`).
        name: diagnostic label.
    """

    def __init__(
        self,
        sim: Simulator,
        processors: int = 8,
        switch_factor: float = 0.05,
        dispatch_overhead: float = 2e-6,
        name: str = "server",
    ):
        self.sim = sim
        self.name = name
        self.cpu = CpuPool(
            sim,
            processors,
            switch_factor=switch_factor,
            dispatch_overhead=dispatch_overhead,
        )
        self.stages: dict[str, Stage] = {}
        self._last_sample_time = 0.0
        self._last_snapshots: dict[str, tuple] = {}
        self._last_busy_time = 0.0

    # ------------------------------------------------------------------
    # Stage management
    # ------------------------------------------------------------------
    def add_stage(
        self,
        name: str,
        threads: int = 1,
        blocking: bool = False,
    ) -> Stage:
        if name in self.stages:
            raise ValueError(f"stage {name!r} already exists")
        stage = Stage(self.sim, self.cpu, name, threads, blocking=blocking)
        self.stages[name] = stage
        return stage

    def stage(self, name: str) -> Stage:
        return self.stages[name]

    def thread_allocation(self) -> dict[str, int]:
        """Current threads per stage."""
        return {name: st.threads for name, st in self.stages.items()}

    def apply_allocation(self, allocation: Mapping[str, int]) -> None:
        """Set thread counts for the named stages (others untouched)."""
        for name, threads in allocation.items():
            self.stages[name].set_threads(threads)

    @property
    def total_threads(self) -> int:
        return sum(st.threads for st in self.stages.values())

    # ------------------------------------------------------------------
    # Windowed sampling (what controllers and estimators consume)
    # ------------------------------------------------------------------
    def begin_window(self) -> None:
        """Mark the start of a measurement window."""
        self._last_sample_time = self.sim.now
        self._last_busy_time = self.cpu.busy_time
        self._last_snapshots = {
            name: st.stats.snapshot() for name, st in self.stages.items()
        }

    def end_window(self) -> dict[str, StatsWindow]:
        """Close the window and return per-stage stats diffs.

        The window is implicitly re-opened at the current instant, so
        periodic controllers can call this alone on every tick.
        """
        elapsed = self.sim.now - self._last_sample_time
        windows = {}
        for name, st in self.stages.items():
            before = self._last_snapshots.get(name)
            if before is None:
                before = (0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
            windows[name] = st.stats.window(before, elapsed)
        self.begin_window()
        return windows

    def cpu_utilization_window(self) -> float:
        """Utilization since the last :meth:`begin_window` call."""
        return self.cpu.utilization(self._last_busy_time, self._last_sample_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StagedServer({self.name!r}, stages={list(self.stages)})"
