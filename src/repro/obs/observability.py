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

from .events import EventLog, RuntimeEvent
from .export import chrome_trace_document, write_chrome_trace, write_jsonl
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
        max_spans / max_events: buffer caps (drops are counted, not
            silent).
    """

    def __init__(self, runtime, sample_rate: float = 1.0,
                 max_spans: int = 2_000_000, max_events: int = 1_000_000):
        self.runtime = runtime
        self.tracer = Tracer(runtime.sim, sample_rate=sample_rate,
                             max_spans=max_spans)
        self.events = EventLog(max_events=max_events)
        self._stage_hooks: list[tuple[Any, Any]] = []
        self._recorder_snapshot: Optional[tuple[float, dict]] = None
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
    # Controller-safe recorder windows
    # ------------------------------------------------------------------
    def begin_recorder_window(self) -> float:
        """Privately snapshot every stage's monotone counters.

        ``StagedServer.begin_window``/``end_window`` share one snapshot
        slot per server, and the thread-allocation controllers re-arm it
        on every tick — an external measurement window taken through the
        server API silently shrinks to "since the last controller tick".
        This pair diffs the monotone :class:`~repro.seda.stage.StageStats`
        counters directly, so it coexists with any number of controllers.

        Returns the window start time (``sim.now``).
        """
        now = self.runtime.sim.now
        self._recorder_snapshot = (now, {
            silo.server_id: {
                name: stage.stats.snapshot()
                for name, stage in silo.stages.items()
            }
            for silo in self.runtime.silos
        })
        return now

    def end_recorder_window(self) -> dict[int, dict[str, Any]]:
        """Close the private window: per-server per-stage StatsWindows.

        The result plugs straight into
        :func:`~repro.obs.analysis.recorder_totals` for cross-checking
        against :func:`~repro.obs.analysis.stage_totals` of the spans.
        """
        if self._recorder_snapshot is None:
            raise RuntimeError("begin_recorder_window() was never called")
        t0, snapshots = self._recorder_snapshot
        self._recorder_snapshot = None
        elapsed = self.runtime.sim.now - t0
        windows: dict[int, dict[str, Any]] = {}
        for silo in self.runtime.silos:
            before = snapshots.get(silo.server_id, {})
            windows[silo.server_id] = {
                name: stage.stats.window(
                    before.get(name, (0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)),
                    elapsed,
                )
                for name, stage in silo.stages.items()
            }
        return windows

    # ------------------------------------------------------------------
    # Convenience accessors / exporters
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    @property
    def runtime_events(self) -> list[RuntimeEvent]:
        return self.events.events

    def chrome_document(self, time_scale: Optional[float] = None) -> dict:
        """Chrome trace-event document of everything collected so far.

        ``time_scale`` defaults to the runtime's own, so durations render
        in paper-equivalent time like the benches report them.
        """
        if time_scale is None:
            time_scale = getattr(self.runtime, "time_scale", 1.0)
        return chrome_trace_document(self.tracer.spans, self.events,
                                     time_scale=time_scale)

    def write_chrome_trace(self, path: str,
                           time_scale: Optional[float] = None) -> dict:
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
