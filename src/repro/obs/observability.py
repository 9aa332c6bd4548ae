"""The one-call wiring of tracing + event logging onto a live cluster.

``Observability(runtime)`` attaches a :class:`~repro.obs.tracer.Tracer`
and an :class:`~repro.obs.events.EventLog` to a
:class:`~repro.actor.core.ClusterCore` under either driver: the runtime
starts sampling client requests at injection, every stage a silo's
driver has (``silo.stages``: four on the simulator, none on asyncio)
reports traced events through its observer hooks, and the control plane
(partitioning agents, thread controllers, migration machinery) emits
structured events.
``detach()`` undoes all of it; a detached runtime is exactly as
uninstrumented as one that never saw this module.
"""

from __future__ import annotations

from typing import Any, Optional

from .events import EventLog
from .export import write_chrome_trace, write_jsonl
from .spans import Span
from .tracer import Tracer

__all__ = ["Observability"]


class Observability:
    """Tracing + runtime-event collection for one cluster runtime.

    Args:
        runtime: the cluster runtime to instrument (either driver).  At
            most one Observability may be attached to a runtime at a
            time.
        sample_rate: fraction of client requests to trace (systematic
            sampling; see :class:`~repro.obs.tracer.Tracer`).

    Both buffers are capped (:data:`~repro.obs.tracer.MAX_SPANS`,
    :data:`~repro.obs.events.MAX_EVENTS`); drops are counted, not silent.
    """

    def __init__(self, runtime, sample_rate: float = 1.0):
        self.runtime = runtime
        self.tracer = Tracer(runtime.sim, sample_rate=sample_rate)
        self.events = EventLog()
        self._stage_hooks: list[tuple[Any, Any]] = []
        self.attached = False
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> "Observability":
        """Wire this instance into the runtime and every silo stage."""
        if self.attached:
            return self
        existing = self.runtime.obs
        if existing is not None and existing is not self:
            raise RuntimeError(
                "runtime already has an Observability attached; detach it first"
            )
        self.runtime.obs = self
        for silo in self.runtime.silos:
            hook = self._stage_observer(silo.server_id)
            for stage in silo.stages.values():
                stage.observers.append(hook)
                self._stage_hooks.append((stage, hook))
        self.attached = True
        return self

    def detach(self) -> None:
        """Remove every hook; collected spans/events stay readable."""
        if not self.attached:
            return
        for stage, hook in self._stage_hooks:
            try:
                stage.observers.remove(hook)
            except ValueError:  # pragma: no cover - stage replaced/reset
                pass
        self._stage_hooks.clear()
        if self.runtime.obs is self:
            self.runtime.obs = None
        self.attached = False

    def _stage_observer(self, server_id: int):
        """A per-silo completion hook for :attr:`Stage.observers`.

        Untraced events carry ``ctx is None`` and cost one attribute
        load + branch — the tracing-disabled overhead budget.
        """
        tracer = self.tracer
        def observe(stage, event):
            ctx = event.ctx
            if ctx is not None:
                tracer.stage_event(server_id, stage.name, ctx, event)
        return observe

    # ------------------------------------------------------------------
    # Convenience accessors / exporters
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def write_chrome_trace(self, path: str,
                           time_scale: Optional[float] = None) -> dict:
        """Write the Chrome trace-event document of everything collected
        so far.  ``time_scale`` defaults to the runtime's own, so
        durations render in paper-equivalent time like the benches
        report them."""
        if time_scale is None:
            time_scale = getattr(self.runtime, "time_scale", 1.0)
        return write_chrome_trace(path, self.tracer.spans, self.events,
                                  time_scale=time_scale)

    def write_jsonl(self, path: str) -> int:
        return write_jsonl(path, self.tracer.spans, self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self.attached else "detached"
        return (f"Observability({state}, spans={len(self.tracer.spans)}, "
                f"events={len(self.events)})")
