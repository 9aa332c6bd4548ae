"""Unit tests for repro.obs: tracer, event log, exporters, analysis."""

import json

import pytest

from repro.obs import (
    CLIENT_PID,
    ActivationEvent,
    EventLog,
    MigrationEvent,
    Span,
    ThreadAllocationEvent,
    TraceContext,
    Tracer,
    breakdown_shares,
    chrome_trace_document,
    critical_path,
    cross_check,
    spans_by_trace,
    stage_totals,
    write_jsonl,
)
from repro.obs import events as event_log
from repro.obs import tracer as span_tracer
from repro.seda.stage import StageEvent
from repro.sim.engine import Simulator


def make_stage_event(enqueue, dispatch, grant, compute_done, complete,
                     wait=0.0):
    event = StageEvent(compute_done - grant, wait, lambda ev: None, ())
    event.enqueue_time = enqueue
    event.dispatch_time = dispatch
    event.grant_time = grant
    event.compute_done_time = compute_done
    event.complete_time = complete
    return event


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_begin_end_request_records_root_span():
    sim = Simulator()
    tracer = Tracer(sim)
    ctx = tracer.begin_request("counter/7.increment")
    assert ctx is not None and ctx.parent_id is None
    sim.defer(0.25, lambda: None)
    sim.run()
    tracer.end_request(ctx)
    assert tracer.requests_finished == 1
    (span,) = tracer.spans
    assert span.cat == "request"
    assert span.name == "counter/7.increment"
    assert span.duration == pytest.approx(0.25)
    assert span.trace_id == ctx.trace_id and span.span_id == ctx.span_id


def test_end_request_is_idempotent():
    tracer = Tracer(Simulator())
    ctx = tracer.begin_request("r")
    tracer.end_request(ctx)
    tracer.end_request(ctx)  # late timeout racing the response
    assert tracer.requests_finished == 1
    assert len(tracer.spans) == 1


def test_systematic_sampling_is_exact_and_deterministic():
    def sampled(rate, n=1000):
        tracer = Tracer(Simulator(), sample_rate=rate)
        return [tracer.begin_request("r") is not None for _ in range(n)]

    quarter = sampled(0.25)
    assert sum(quarter) == 250  # exactly every 4th, no RNG involved
    assert quarter == sampled(0.25)  # deterministic across instances
    assert sum(sampled(0.0)) == 0
    assert sum(sampled(1.0)) == 1000


def test_sample_rate_validation():
    with pytest.raises(ValueError):
        Tracer(Simulator(), sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(Simulator(), sample_rate=-0.1)


def test_child_context_lineage():
    tracer = Tracer(Simulator())
    root = tracer.begin_request("r")
    child = tracer.child(root)
    grandchild = tracer.child(child)
    assert child.trace_id == root.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert len({root.span_id, child.span_id, grandchild.span_id}) == 3


def test_call_issue_resolve_span():
    sim = Simulator()
    tracer = Tracer(sim)
    root = tracer.begin_request("r")
    ctx = tracer.child(root)
    tracer.call_issued(17, ctx, "actor/1.get", server=2)
    sim.defer(0.5, lambda: None)
    sim.run()
    tracer.call_resolved(17)
    tracer.call_resolved(99)  # untraced id: silently ignored
    (span,) = [s for s in tracer.spans if s.cat == "call"]
    assert span.duration == pytest.approx(0.5)
    assert span.server == 2
    assert span.parent_id == root.span_id


def test_stage_event_spans_elide_zero_components():
    sim = Simulator()
    tracer = Tracer(sim)
    ctx = TraceContext(1, 10, None)
    # queue wait, ready and blocking wait all present:
    tracer.stage_event(0, "worker", ctx,
                       make_stage_event(0.0, 1.0, 1.5, 2.5, 4.0))
    cats = [s.cat for s in tracer.spans]
    assert cats == ["stage.queue", "stage.ready", "stage.compute", "stage.wait"]
    assert all(s.parent_id == 10 for s in tracer.spans)
    # instant dispatch/grant/complete: only the compute span remains.
    tracer.spans.clear()
    tracer.stage_event(0, "worker", ctx,
                       make_stage_event(1.0, 1.0, 1.0, 3.0, 3.0))
    assert [s.cat for s in tracer.spans] == ["stage.compute"]


def test_max_spans_cap_counts_drops(monkeypatch):
    monkeypatch.setattr(span_tracer, "MAX_SPANS", 2)
    sim = Simulator()
    tracer = Tracer(sim)
    ctx = TraceContext(1, 1, None)
    for _ in range(3):
        tracer.network_hop(ctx, 0, 1, 64, 0.001)
    assert len(tracer.spans) == 2
    assert tracer.dropped_spans == 1


# ----------------------------------------------------------------------
# EventLog
# ----------------------------------------------------------------------
def test_event_log_collects_and_filters_by_kind():
    log = EventLog()
    log.emit(ActivationEvent(1.0, server=0, actor="a/1"))
    log.emit(MigrationEvent(2.0, actor="a/1", source=0, destination=3))
    assert len(log) == 2
    (migration,) = log.of_kind(MigrationEvent)
    assert migration.destination == 3
    doc = migration.to_dict()
    assert doc["type"] == "event" and doc["kind"] == "migration"
    assert doc["source"] == 0


def test_event_log_cap(monkeypatch):
    monkeypatch.setattr(event_log, "MAX_EVENTS", 1)
    log = EventLog()
    log.emit(ActivationEvent(1.0, server=0, actor="a"))
    log.emit(ActivationEvent(2.0, server=0, actor="b"))
    assert len(log) == 1       # buffer honors the cap
    assert log.dropped == 1


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_chrome_trace_document_structure():
    spans = [
        Span(1, 1, None, "req", "request", 0.0, 2.0, None, "requests"),
        Span(1, 2, 1, "worker.compute", "stage.compute", 0.5, 1.5, 0,
             "worker", {"k": "v"}),
    ]
    events = [ThreadAllocationEvent(1.0, server="silo0",
                                    allocation={"worker": 4}, alpha=0.1,
                                    feasible=True, controller="model")]
    doc = chrome_trace_document(spans, events, time_scale=2.0)
    payload = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(payload) == 2 and len(instants) == 1
    request = next(e for e in payload if e["name"] == "req")
    # 2 simulated seconds / time_scale 2 -> 1 displayed second = 1e6 us.
    assert request["dur"] == pytest.approx(1e6)
    assert request["pid"] == CLIENT_PID
    compute = next(e for e in payload if e["name"] == "worker.compute")
    assert compute["pid"] == 0 and compute["args"]["k"] == "v"
    # the "silo0" string server resolves to pid 0
    assert instants[0]["pid"] == 0
    names = {(m["name"], m["args"]["name"]) for m in meta}
    assert ("process_name", "clients") in names
    assert ("process_name", "silo0") in names
    assert ("thread_name", "worker") in names
    json.dumps(doc)  # must be serializable as-is


def test_chrome_trace_rejects_bad_time_scale():
    with pytest.raises(ValueError):
        chrome_trace_document([], time_scale=0.0)


def test_write_jsonl_round_trips(tmp_path):
    spans = [Span(1, 1, None, "req", "request", 0.0, 1.0)]
    events = [ActivationEvent(0.5, server=2, actor="a/1")]
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(str(path), spans, events) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "span" and lines[0]["cat"] == "request"
    assert lines[1]["type"] == "event" and lines[1]["kind"] == "activation"


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def test_critical_path_follows_latest_finishing_child():
    spans = [
        Span(1, 1, None, "req", "request", 0.0, 10.0),
        Span(1, 2, 1, "fast", "call", 1.0, 3.0),
        Span(1, 3, 1, "slow", "call", 1.0, 9.0),
        Span(1, 4, 3, "worker.compute", "stage.compute", 8.0, 9.0, 0, "worker"),
    ]
    path = critical_path(spans)
    assert [s.name for s in path] == ["req", "slow", "worker.compute"]
    assert critical_path([]) == []
    assert len(spans_by_trace(spans)) == 1


def test_stage_totals_window_and_cross_check():
    spans = [
        Span(1, 2, 1, "worker.compute", "stage.compute", 0.0, 1.0, 0, "worker"),
        Span(1, 3, 1, "worker.queue", "stage.queue", 0.0, 0.5, 0, "worker"),
        # completes outside the (0, 2] window -> excluded
        Span(2, 4, 1, "worker.compute", "stage.compute", 2.0, 3.0, 0, "worker"),
    ]
    totals = stage_totals(spans, t0=0.0, t1=2.0)
    assert totals["worker"]["compute"] == pytest.approx(1.0)
    assert totals["worker"]["queue"] == pytest.approx(0.5)

    error, components = cross_check(
        totals, {"worker": {"queue": 0.5, "ready": 0.0, "compute": 1.0,
                            "wait": 0.0}})
    assert error == pytest.approx(0.0)
    error, _ = cross_check(
        totals, {"worker": {"queue": 0.5, "ready": 0.0, "compute": 2.0,
                            "wait": 0.0}})
    assert error == pytest.approx(0.5)


def test_breakdown_shares_decomposes_e2e():
    spans = [
        Span(1, 1, None, "req", "request", 0.0, 10.0),
        Span(1, 2, 1, "worker.compute", "stage.compute", 1.0, 5.0, 0, "worker"),
        Span(1, 3, 1, "worker.queue", "stage.queue", 0.0, 1.0, 0, "worker"),
        Span(1, 4, 1, "net 0->1", "net", 5.0, 6.0, 1, "network"),
    ]
    shares = breakdown_shares(spans)
    assert shares["worker processing"] == pytest.approx(40.0)
    assert shares["worker queue"] == pytest.approx(10.0)
    assert shares["network"] == pytest.approx(10.0)
    assert shares["other"] == pytest.approx(40.0)
    assert breakdown_shares([]) == {}
