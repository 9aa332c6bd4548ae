"""A staged (SEDA) server: shared processors + named stages.

This is the generic chassis used both by the Orleans-style actor server
(:mod:`repro.actor.server`) and by the standalone pipeline emulator
(:mod:`repro.seda.emulator`).  It owns the CPU pool and the stage
registry, and hands out counter snapshots that each reader keeps for
itself.
"""

from __future__ import annotations

from typing import Mapping

from ..sim.cpu import DISPATCH_OVERHEAD, SWITCH_FACTOR, CpuPool
from ..sim.engine import Simulator
from .stage import Stage, StatsWindow

__all__ = ["StagedServer"]


class StagedServer:
    """A server made of SEDA stages sharing one processor pool.

    Args:
        sim: driving simulator.
        processors: number of cores (the paper's testbed uses 8).
        switch_factor / dispatch_overhead: the CPU model (see
            :class:`~repro.sim.cpu.CpuPool`; the defaults are its constants).
        name: diagnostic label.
    """

    def __init__(
        self,
        sim: Simulator,
        processors: int = 8,
        switch_factor: float = SWITCH_FACTOR,
        dispatch_overhead: float = DISPATCH_OVERHEAD,
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
    def snapshot(self) -> tuple[float, dict[str, tuple]]:
        """The current instant and every stage's counters.

        The caller keeps the snapshot and later passes it to
        :meth:`windows_since`, so any number of readers window the same
        server without disturbing one another.
        """
        return self.sim.now, {
            name: st.stats.snapshot() for name, st in self.stages.items()
        }

    def windows_since(
        self, snapshot: tuple[float, dict[str, tuple]]
    ) -> dict[str, StatsWindow]:
        """Per-stage stats diffs from ``snapshot`` to now."""
        t0, before = snapshot
        elapsed = self.sim.now - t0
        return {
            name: st.stats.window(before[name], elapsed)
            for name, st in self.stages.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StagedServer({self.name!r}, stages={list(self.stages)})"
