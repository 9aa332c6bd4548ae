"""The causal tracer: id assignment, sampling, span recording.

One :class:`Tracer` serves a whole cluster.  It assigns a trace id at
client-request injection (subject to per-trace sampling), hands out child
span ids as the request fans out through actor calls, and records
finished :class:`~repro.obs.spans.Span` objects as each piece of work
completes.

Neutrality contract: the tracer never schedules simulator events, never
draws from any RNG stream, and never mutates runtime state — it only
*reads* ``sim.now`` and appends to its own buffers.  A seeded run with
tracing enabled is therefore bit-for-bit identical to the same run with
tracing disabled (asserted by ``tests/integration/test_tracing.py``).

Sampling is systematic (an error-diffusion accumulator), not random: a
``sample_rate`` of 0.25 traces exactly every 4th request, deterministic
across runs and free of any RNG coupling.
"""

from __future__ import annotations

from typing import Optional

from .spans import Span, TraceContext

__all__ = ["Tracer"]

# Hard cap on buffered spans; further spans are counted in
# ``Tracer.dropped_spans`` instead of silently vanishing.
MAX_SPANS = 2_000_000


class Tracer:
    """Cluster-wide causal tracer.

    Args:
        sim: the driving simulator (read for timestamps only).
        sample_rate: fraction of client requests to trace, in [0, 1].
            Sampling is decided once per request at injection; everything
            the request causes inherits the decision via context
            propagation.

    At most :data:`MAX_SPANS` spans are buffered; the rest are counted in
    :attr:`dropped_spans`.
    """

    def __init__(self, sim, sample_rate: float = 1.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sim = sim
        self.sample_rate = sample_rate
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self.requests_seen = 0       # all injected client requests
        self.traces_started = 0      # requests that passed sampling
        self.requests_finished = 0   # traced requests completed (or timed out)
        self._accum = 0.0            # systematic-sampling error accumulator
        self._next_trace_id = 1
        self._next_span_id = 1
        # trace_id -> (root name, root ctx, injection time)
        self._open_requests: dict[int, tuple[str, TraceContext, float]] = {}
        # call_id -> (request ctx, call name, caller silo, issue time)
        self._open_calls: dict[int, tuple[TraceContext, str, int, float]] = {}

    # ------------------------------------------------------------------
    # Context lifecycle
    # ------------------------------------------------------------------
    def begin_request(self, name: str) -> Optional[TraceContext]:
        """Sampling decision + root context for one client request.

        Returns None when the request is not sampled; callers propagate
        the None and the whole causal tree stays untraced.
        """
        self.requests_seen += 1
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0:
            self._accum += rate
            if self._accum < 1.0:
                return None
            self._accum -= 1.0
        trace_id = self._next_trace_id
        self._next_trace_id = trace_id + 1
        ctx = TraceContext(trace_id, self._new_span_id(), None)
        self._open_requests[trace_id] = (name, ctx, self.sim.now)
        self.traces_started += 1
        return ctx

    def end_request(self, ctx: TraceContext,
                    error: Optional[str] = None) -> None:
        """Close the root span (response delivered, or timed out)."""
        entry = self._open_requests.pop(ctx.trace_id, None)
        if entry is None:
            return  # already closed (e.g. timeout raced the response)
        name, root, start = entry
        self.requests_finished += 1
        self._record(Span(
            root.trace_id, root.span_id, None, name, "request",
            start, self.sim.now, None, "requests",
            {"error": error} if error else None,
        ))

    def child(self, ctx: TraceContext) -> TraceContext:
        """A context for a message caused by the one carrying ``ctx``."""
        return TraceContext(ctx.trace_id, self._new_span_id(), ctx.span_id)

    # ------------------------------------------------------------------
    # Span sources (called from the instrumented runtime)
    # ------------------------------------------------------------------
    def call_issued(self, call_id: int, ctx: TraceContext, name: str,
                    server: int) -> None:
        """An actor-to-actor Call left a turn; span emitted at resolution."""
        self._open_calls[call_id] = (ctx, name, server, self.sim.now)

    def call_resolved(self, call_id: int, ok: bool = True) -> None:
        """The response (or timeout) for ``call_id`` reached the caller."""
        entry = self._open_calls.pop(call_id, None)
        if entry is None:
            return  # untraced or stale call id
        ctx, name, server, start = entry
        self._record(Span(
            ctx.trace_id, ctx.span_id, ctx.parent_id, name, "call",
            start, self.sim.now, server, "calls",
            None if ok else {"error": True},
        ))

    def network_hop(self, ctx: TraceContext, source: Optional[int],
                    destination: Optional[int], size: int,
                    latency: float) -> None:
        """One message entered the wire; transit time is already drawn."""
        now = self.sim.now
        src = "client" if source is None else source
        dst = "client" if destination is None else destination
        self._record(Span(
            ctx.trace_id, self._new_span_id(), ctx.span_id,
            f"net {src}->{dst}", "net", now, now + latency,
            destination, "network", {"bytes": size},
        ))

    def stage_event(self, server: int, stage_name: str, ctx: TraceContext,
                    event) -> None:
        """Emit the Fig.-9 lifecycle of one completed StageEvent.

        Zero-length components (no queue wait, no ready time, no blocking
        wait) are elided; the compute span is always emitted so every
        stage hop is visible in the timeline.

        Every component span carries the event's completion time in
        ``args["completed"]``: the stage recorders attribute the whole
        breakdown to the completion instant, so window filters must use
        it too or events straddling a window edge are split differently
        on the two sides (see :func:`~repro.obs.analysis.stage_totals`).
        """
        trace_id = ctx.trace_id
        parent = ctx.span_id
        record = self._record
        meta = {"completed": event.complete_time}
        if event.dispatch_time > event.enqueue_time:
            record(Span(trace_id, self._new_span_id(), parent,
                        f"{stage_name}.queue", "stage.queue",
                        event.enqueue_time, event.dispatch_time,
                        server, stage_name, meta))
        if event.grant_time > event.dispatch_time:
            record(Span(trace_id, self._new_span_id(), parent,
                        f"{stage_name}.ready", "stage.ready",
                        event.dispatch_time, event.grant_time,
                        server, stage_name, meta))
        record(Span(trace_id, self._new_span_id(), parent,
                    f"{stage_name}.compute", "stage.compute",
                    event.grant_time, event.compute_done_time,
                    server, stage_name, meta))
        if event.complete_time > event.compute_done_time:
            record(Span(trace_id, self._new_span_id(), parent,
                        f"{stage_name}.wait", "stage.wait",
                        event.compute_done_time, event.complete_time,
                        server, stage_name, meta))

    # ------------------------------------------------------------------
    def _new_span_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        return span_id

    def _record(self, span: Span) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tracer(rate={self.sample_rate}, spans={len(self.spans)}, "
                f"traces={self.traces_started})")
