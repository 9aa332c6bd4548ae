"""Trace analysis: critical paths and Fig.-4/Fig.-9 breakdowns from spans.

Everything here is *derived* from the causal trace alone — no access to
the runtime — so the same analysis applies to a live run, a JSONL replay,
or a synthetic trace in a test.  The stage-time totals it computes are
cross-checked against the independent :class:`~repro.seda.stage.Stage`
recorders (``repro trace`` enforces agreement within 1%), which pins the
tracer's attribution to the measurement infrastructure the estimator
(§5.4) already trusts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Optional

from .spans import Span

__all__ = [
    "spans_by_trace",
    "critical_path",
    "stage_totals",
    "recorder_totals",
    "cross_check",
    "breakdown_shares",
]

#: span categories -> stage-component keys shared with the recorders
_STAGE_COMPONENTS = {
    "stage.queue": "queue",
    "stage.ready": "ready",
    "stage.compute": "compute",
    "stage.wait": "wait",
}


def _in_window(span: Span, t0: Optional[float], t1: Optional[float]) -> bool:
    """Window membership by *completion* time, exactly like the stage
    recorders (which add to their sums when an event completes).

    Stage-component spans end before their event completes (the queue
    span ends at dispatch, the ready span at grant, ...); the tracer
    stamps the owning event's completion time in ``args["completed"]``
    and windowing uses it so both sides classify edge-straddling events
    identically.
    """
    end = span.end
    if span.args is not None:
        end = span.args.get("completed", end)
    if t0 is not None and end <= t0:
        return False
    if t1 is not None and end > t1:
        return False
    return True


def spans_by_trace(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Group spans by trace id, preserving recording order."""
    grouped: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.trace_id].append(span)
    return dict(grouped)


def critical_path(trace_spans: Iterable[Span]) -> list[Span]:
    """The latest-finishing causal chain of one trace, root first.

    At each level the child that finished last is the one the parent's
    completion actually waited for (joins resume when the slowest
    response arrives), so greedily descending by ``end`` yields the
    critical path through fan-out/fan-in structures.
    """
    spans = list(trace_spans)
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    roots = [s for s in spans if s.cat == "request"] or children.get(None, [])
    if not roots:
        return []
    path = [max(roots, key=lambda s: s.end)]
    while True:
        step = children.get(path[-1].span_id)
        if not step:
            return path
        path.append(max(step, key=lambda s: s.end))


def stage_totals(
    spans: Iterable[Span],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> dict[str, dict[str, float]]:
    """Trace-derived per-stage time totals, summed across servers.

    Returns ``{stage_name: {"queue": s, "ready": s, "compute": s,
    "wait": s}}`` in simulated seconds, for spans completing in
    ``(t0, t1]``.
    """
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"queue": 0.0, "ready": 0.0, "compute": 0.0, "wait": 0.0}
    )
    for span in spans:
        component = _STAGE_COMPONENTS.get(span.cat)
        if component is None or not _in_window(span, t0, t1):
            continue
        totals[span.track][component] += span.duration
    return dict(totals)


def recorder_totals(
    windows_by_server: Mapping[int, Mapping[str, object]],
) -> dict[str, dict[str, float]]:
    """The same shape as :func:`stage_totals`, from the Stage recorders.

    ``windows_by_server`` maps server id to the per-stage
    :class:`~repro.seda.stage.StatsWindow` dict that
    :meth:`StagedServer.windows_since` returns; the window means are
    multiplied back into sums so both sides total the same quantity.
    """
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"queue": 0.0, "ready": 0.0, "compute": 0.0, "wait": 0.0}
    )
    for windows in windows_by_server.values():
        for stage_name, window in windows.items():
            n = window.completions
            if n <= 0:
                continue
            bucket = totals[stage_name]
            bucket["queue"] += window.mean_queue_wait * n
            bucket["ready"] += window.mean_ready * n
            bucket["compute"] += window.mean_x * n
            bucket["wait"] += window.mean_wait * n
    return dict(totals)


def cross_check(
    trace: Mapping[str, Mapping[str, float]],
    recorder: Mapping[str, Mapping[str, float]],
) -> tuple[float, dict[str, float]]:
    """Compare trace-derived vs recorder stage totals.

    Returns ``(max_relative_error, per_component_errors)`` where the
    errors are relative to the recorder side.  Components too small to
    compare meaningfully (below 1e-9 of the largest recorder total on
    both sides) are skipped.
    """
    reference_max = max(
        (value for bucket in recorder.values() for value in bucket.values()),
        default=0.0,
    )
    floor = 1e-9 * reference_max
    errors: dict[str, float] = {}
    for stage_name in sorted(set(trace) | set(recorder)):
        trace_bucket = trace.get(stage_name, {})
        recorder_bucket = recorder.get(stage_name, {})
        for component in ("queue", "ready", "compute", "wait"):
            expected = recorder_bucket.get(component, 0.0)
            observed = trace_bucket.get(component, 0.0)
            if expected <= floor and observed <= floor:
                continue
            if expected <= 0.0:
                errors[f"{stage_name}.{component}"] = float("inf")
                continue
            errors[f"{stage_name}.{component}"] = abs(observed - expected) / expected
    return (max(errors.values(), default=0.0), errors)


def breakdown_shares(
    spans: Iterable[Span],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> dict[str, float]:
    """A Fig.-4-style end-to-end latency breakdown derived from traces.

    For requests completing in the window, sums each component (per-stage
    queue/processing, ready time, blocking wait, network) and reports it
    as a percentage of total end-to-end request time.  ``other`` is the
    unattributed residual (clamped at 0: with fan-out, concurrent
    branches can legitimately account for more than wall-clock).
    Returns an empty dict when no request completed in the window.
    """
    spans = list(spans)
    window_traces = {
        s.trace_id for s in spans if s.cat == "request" and _in_window(s, t0, t1)
    }
    if not window_traces:
        return {}
    total_e2e = 0.0
    components: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.trace_id not in window_traces:
            continue
        if span.cat == "request":
            total_e2e += span.duration
        elif span.cat == "stage.queue":
            components[f"{span.track} queue"] += span.duration
        elif span.cat == "stage.compute":
            components[f"{span.track} processing"] += span.duration
        elif span.cat == "stage.ready":
            components["ready (run queue)"] += span.duration
        elif span.cat == "stage.wait":
            components["blocking wait"] += span.duration
        elif span.cat == "net":
            components["network"] += span.duration
    if total_e2e <= 0.0:
        return {}
    shares = {name: 100.0 * value / total_e2e
              for name, value in sorted(components.items())}
    shares["other"] = max(0.0, 100.0 - sum(shares.values()))
    return shares
