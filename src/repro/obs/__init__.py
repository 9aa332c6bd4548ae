"""``repro.obs`` — observability for the whole stack.

Three layers, composable but independent:

* **Causal tracing** (:mod:`~repro.obs.spans`, :mod:`~repro.obs.tracer`):
  trace/span ids assigned at client-request injection and propagated
  through actor calls, stage traversals, and network hops — RPC and LPC
  paths alike — with deterministic per-trace sampling.
* **Structured runtime events** (:mod:`~repro.obs.events`): typed records
  of the control plane — partitioning rounds and exchanges, migrations,
  thread re-allocations, activation lifecycle, silo failures.
* **Export + analysis** (:mod:`~repro.obs.export`,
  :mod:`~repro.obs.analysis`): Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), JSONL streams, per-request critical
  paths, and Fig.-4-style latency breakdowns cross-checked against the
  stage recorders.

:class:`~repro.obs.observability.Observability` wires all of it onto an
:class:`~repro.actor.runtime.ActorRuntime` in one call; ``repro trace``
is the CLI front-end.  Everything observes and nothing perturbs: a
seeded run is bit-for-bit identical with tracing on or off.
"""

from .analysis import (
    breakdown_shares,
    critical_path,
    cross_check,
    recorder_totals,
    spans_by_trace,
    stage_totals,
)
from .events import (
    ActivationEvent,
    DeactivationEvent,
    EventLog,
    ExchangeEvent,
    FailoverEvent,
    FaultInjectionEvent,
    MigrationEvent,
    PartitionRoundEvent,
    RetryEvent,
    RuntimeEvent,
    ShedEvent,
    SiloLifecycleEvent,
    ThreadAllocationEvent,
)
from .export import (
    CLIENT_PID,
    chrome_trace_document,
    write_chrome_trace,
    write_jsonl,
)
from .observability import Observability
from .spans import SPAN_CATEGORIES, Span, TraceContext
from .tracer import Tracer

__all__ = [
    # spans / tracer
    "TraceContext",
    "Span",
    "SPAN_CATEGORIES",
    "Tracer",
    # runtime events
    "RuntimeEvent",
    "ActivationEvent",
    "DeactivationEvent",
    "MigrationEvent",
    "SiloLifecycleEvent",
    "PartitionRoundEvent",
    "ExchangeEvent",
    "ThreadAllocationEvent",
    "FaultInjectionEvent",
    "RetryEvent",
    "ShedEvent",
    "FailoverEvent",
    "EventLog",
    # export
    "CLIENT_PID",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_jsonl",
    # analysis
    "spans_by_trace",
    "critical_path",
    "stage_totals",
    "recorder_totals",
    "cross_check",
    "breakdown_shares",
    # facade
    "Observability",
]
