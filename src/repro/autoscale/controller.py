"""The elastic autoscaling controller.

Watches per-silo CPU utilization over each control window and keeps the
cluster-mean inside the configured band by executing *integrated*
reconfiguration plans: a grow plan un-parks silos and resizes registered
actor pools to the new capacity; a shrink plan drains the least-loaded
silo (placement stops targeting it at once, its activations migrate off
via the §4.3 opportunistic path, and it leaves service when quiescent),
then resizes pools.  One plan — membership, migration, pool sizing —
rather than independent loops fighting each other (the integrated
formulation of arXiv:1602.03770, on top of ActOp's runtime mechanisms).
An ActOp partitioner on the same cluster keeps running its own rounds.

Determinism: the controller draws **no randomness** — decisions are pure
functions of measured utilization, so a seeded workload produces
bit-identical scaling traces.  A cluster built with ``autoscale=None``
never constructs the controller and is bit-identical to earlier builds.
"""

from __future__ import annotations

import math
from typing import Optional

from ..obs.events import ScalePlanEvent
from .config import AutoscaleConfig

__all__ = ["AutoscaleController"]


class AutoscaleController:
    """Grow/shrink controller over an :class:`ActorRuntime`'s silo fleet."""

    def __init__(self, runtime, config: Optional[AutoscaleConfig] = None):
        self.runtime = runtime
        self.config = config or AutoscaleConfig()
        self.max_silos = (self.config.max_silos
                          if self.config.max_silos is not None
                          else runtime.num_servers)
        if self.max_silos > runtime.num_servers:
            raise ValueError(
                f"max_silos={self.max_silos} exceeds the fleet "
                f"({runtime.num_servers} silos)")
        # pool -> replicas-per-active-silo ratio (None until start()).
        self._pools: list = []
        self._running = False
        self._draining: Optional[int] = None
        self._plan_ids = 0
        self._last_plan_at: Optional[float] = None
        self._busy: list[float] = []
        self._t_last = 0.0
        # Provisioned capacity accounting: silo-seconds of powered
        # (non-dead) silos, the study's cost metric.
        self.silo_seconds = 0.0
        self._ss_t = 0.0
        self._ss_powered = 0
        # Introspection
        self.plans_begun = 0
        self.plans_committed = 0
        self.grows = 0
        self.shrinks = 0
        self.decisions: list[tuple[float, float, int, str]] = []
        self.windows: list[tuple[float, float, int]] = []

    # ------------------------------------------------------------------
    def register_pool(self, pool, replicas_per_silo: Optional[float] = None):
        """Scale ``pool`` with the fleet: ``replicas_per_silo`` replicas
        per active silo (``None`` derives the ratio from the pool's size
        at :meth:`start`, preserving the configured shape)."""
        self._pools.append([pool, replicas_per_silo])
        return pool

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return self.runtime.active_servers

    def _powered(self) -> int:
        return sum(1 for s in self.runtime.silos if not s.dead)

    def _account(self) -> None:
        now = self.runtime.sim.now
        self.silo_seconds += self._ss_powered * (now - self._ss_t)
        self._ss_t = now
        self._ss_powered = self._powered()

    # ------------------------------------------------------------------
    def start(self) -> "AutoscaleController":
        if self._running:
            raise RuntimeError("AutoscaleController.start() called twice")
        self._running = True
        runtime = self.runtime
        cfg = self.config
        initial = (cfg.initial_silos if cfg.initial_silos is not None
                   else runtime.num_servers)
        initial = max(cfg.min_silos, min(initial, self.max_silos))
        # Park the surplus (highest ids): silos are empty at t=0, so
        # parking is a pure membership change, not a crash.
        for server in range(initial, runtime.num_servers):
            runtime.fail_silo(server)
        for entry in self._pools:
            if entry[1] is None:
                entry[1] = entry[0].replicas / initial
        self._busy = runtime.cpu_busy_snapshot()
        self._t_last = runtime.sim.now
        self._ss_t = runtime.sim.now
        self._ss_powered = self._powered()
        runtime.sim.schedule(cfg.warmup + cfg.period, self._tick)
        return self

    def stop(self) -> None:
        self._running = False
        self._account()

    # ------------------------------------------------------------------
    def _measure(self) -> tuple[float, list[tuple[float, int]]]:
        """Mean utilization across live, non-draining silos over the
        window since the last tick, plus per-silo (util, id) pairs."""
        runtime = self.runtime
        per_silo = []
        total = 0.0
        for silo, before in zip(runtime.silos, self._busy):
            if silo.dead or silo.draining:
                continue
            util = silo.server.cpu.utilization(before, self._t_last)
            per_silo.append((util, silo.server_id))
            total += util
        self._busy = runtime.cpu_busy_snapshot()
        self._t_last = runtime.sim.now
        mean = total / len(per_silo) if per_silo else 0.0
        return mean, per_silo

    def _tick(self) -> None:
        if not self._running:
            return
        cfg = self.config
        runtime = self.runtime
        self._account()
        util, per_silo = self._measure()
        active = self.active
        self.windows.append((runtime.sim.now, util, active))
        in_cooldown = (self._last_plan_at is not None
                       and runtime.sim.now - self._last_plan_at < cfg.cooldown)
        if self._draining is None and not in_cooldown:
            if util > cfg.high and active < self.max_silos:
                self._grow(util, active)
            elif util < cfg.low and active > cfg.min_silos:
                # Only shrink if the survivors' projected load stays
                # inside the band — never trade a lull for an overload.
                projected = util * active / (active - 1)
                if projected < cfg.high:
                    self._shrink(util, active, per_silo)
        runtime.sim.schedule(cfg.period, self._tick)

    # ------------------------------------------------------------------
    # Plans: one integrated membership + pools change.
    # ------------------------------------------------------------------
    def _grow(self, util: float, active: int) -> None:
        cfg = self.config
        runtime = self.runtime
        # Proportional step: enough silos that the measured demand would
        # sit at the band's midpoint.
        mid = (cfg.low + cfg.high) / 2.0
        desired = min(self.max_silos, math.ceil(active * util / mid))
        step = max(1, desired - active)
        plan_id = self._begin("grow", util, active,
                              min(active + step, self.max_silos))
        added = []
        for _ in range(step):
            server = runtime.add_silo()
            if server is None:
                break
            added.append(server)
        self._account()
        new_active = self.active
        self.grows += 1
        self.decisions.append(
            (runtime.sim.now, util, new_active, f"grow+{len(added)}"))
        self._resize_pools(new_active)
        self._commit(plan_id, "grow", util, active, new_active,
                     server=added[0] if added else -1)

    def _shrink(self, util: float, active: int,
                per_silo: list[tuple[float, int]]) -> None:
        runtime = self.runtime
        # Drain the least-loaded silo (ties: lowest id) — fewest
        # activations to migrate, least disruption.
        victim = min(per_silo)[1]
        plan_id = self._begin("shrink", util, active, active - 1,
                              server=victim)
        self._draining = victim
        self.shrinks += 1
        self.decisions.append(
            (runtime.sim.now, util, active - 1, f"drain:{victim}"))
        started = runtime.drain_silo(
            victim,
            on_complete=lambda server, _ctx=(plan_id, util, active):
                self._drain_done(server, *_ctx))
        if not started:  # silo died between measure and act
            self._draining = None
            return
        self._resize_pools(self.active)

    def _drain_done(self, server: int, plan_id: int, util: float,
                    active: int) -> None:
        self._draining = None
        self._account()
        self._commit(plan_id, "shrink", util, active, self.active,
                     server=server)

    # ------------------------------------------------------------------
    def _begin(self, kind: str, util: float, before: int, after: int,
               server: int = -1) -> int:
        self._plan_ids += 1
        self.plans_begun += 1
        self._last_plan_at = self.runtime.sim.now
        self._emit(self._plan_ids, "begin", kind, util, before, after, server)
        return self._plan_ids

    def _commit(self, plan_id: int, kind: str, util: float, before: int,
                after: int, server: int = -1) -> None:
        self.plans_committed += 1
        self._emit(plan_id, "commit", kind, util, before, after, server)

    def _emit(self, plan_id: int, phase: str, kind: str, util: float,
              before: int, after: int, server: int) -> None:
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(ScalePlanEvent(
                self.runtime.sim.now, plan_id=plan_id, phase=phase,
                kind=kind, server=server, utilization=util,
                active_before=before, active_after=after))

    def _resize_pools(self, active: int) -> None:
        for pool, ratio in self._pools:
            pool.resize(max(1, round(ratio * active)))

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready run summary (the ``repro autoscale`` artifact)."""
        return {
            "plans_begun": self.plans_begun,
            "plans_committed": self.plans_committed,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "active_silos": self.active,
            "silo_seconds": round(self.silo_seconds, 3),
            "decisions": [
                {"t": round(t, 3), "utilization": round(u, 4),
                 "active": a, "action": action}
                for t, u, a, action in self.decisions
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AutoscaleController(active={self.active}, "
                f"plans={self.plans_committed}/{self.plans_begun}, "
                f"band=[{self.config.low}, {self.config.high}])")
