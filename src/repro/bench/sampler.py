"""Periodic cluster sampling for time-series figures.

Fig. 10(a) plots the share of remote messages and the actor-movement rate
over time; Fig. 7 plots queue lengths and thread allocations.  The
samplers here attach to a running system and record windowed diffs of the
relevant monotone counters.
"""

from __future__ import annotations

from typing import Optional

from ..actor.runtime import ActorRuntime
from .metrics import TimeSeries

__all__ = ["ClusterSampler"]


class ClusterSampler:
    """Samples remote-message share, migrations, CPU and imbalance per
    window.  Latency is not sampled here: the runtime records each
    client response once, into ``client_latency``, which the benches
    read at the end of a measurement window.

    Args:
        runtime: the cluster under test.
        period: sampling window in simulated seconds.
    """

    def __init__(self, runtime: ActorRuntime, period: float = 5.0):
        if period <= 0:
            raise ValueError("period must be positive")
        self.runtime = runtime
        self.period = period
        self.remote_share = TimeSeries("remote_share")
        self.migrations_per_window = TimeSeries("migrations")
        self.cpu_utilization = TimeSeries("cpu")
        self.imbalance = TimeSeries("imbalance")
        self._running = False
        self._last_local = 0
        self._last_remote = 0
        self._last_migrations = 0
        self._last_busy: Optional[list[float]] = None
        self._last_time = 0.0

    def start(self) -> None:
        self._running = True
        self._snapshot()
        self.runtime.sim.schedule(self.period, self._tick)

    def stop(self) -> None:
        self._running = False

    def _snapshot(self) -> None:
        self._last_local = self.runtime.msgs_local
        self._last_remote = self.runtime.msgs_remote
        self._last_migrations = self.runtime.migrations_total
        self._last_busy = self.runtime.cpu_busy_snapshot()
        self._last_time = self.runtime.sim.now

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.runtime.sim.now
        local = self.runtime.msgs_local - self._last_local
        remote = self.runtime.msgs_remote - self._last_remote
        total = local + remote
        self.remote_share.record(now, remote / total if total else 0.0)
        self.migrations_per_window.record(
            now, self.runtime.migrations_total - self._last_migrations
        )
        assert self._last_busy is not None
        self.cpu_utilization.record(
            now, self.runtime.mean_cpu_utilization(self._last_busy, self._last_time)
        )
        census = self.runtime.census()
        if census:
            self.imbalance.record(now, max(census.values()) - min(census.values()))
        self._snapshot()
        self.runtime.sim.schedule(self.period, self._tick)
