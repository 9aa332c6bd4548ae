"""``repro.obs`` — the runtime event log.

Typed records of the control plane (:mod:`~repro.obs.events`) —
partitioning rounds and exchanges, migrations, thread re-allocations,
activation lifecycle, silo failures, fault actions, retries, sheds and
failovers — collected in an append-only :class:`~repro.obs.events.EventLog`.

:class:`~repro.obs.observability.Observability` attaches one log to an
:class:`~repro.actor.runtime.ActorRuntime` (or ``AsyncioBackend``) in one
call.  Everything observes and nothing perturbs: a seeded run is
bit-for-bit identical with a log attached or not.  Per-stage queue,
ready, compute and wait times are not events: every stage keeps them in
its :class:`~repro.seda.stage.StageStats` recorder.
"""

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
from .observability import Observability

__all__ = [
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
    "Observability",
]
