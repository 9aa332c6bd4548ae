"""Structured runtime events: the cluster's control plane, made visible.

The *decisions* — partitioning rounds and exchanges, migrations, thread
re-allocations, activation lifecycle, silo failure/recovery — as typed
records collected in an append-only :class:`EventLog`.

These were previously invisible internals (counters at best); related
adaptive systems (DPA load balancing, dynamic reconfiguration engines)
treat exactly this telemetry as the *input* to adaptation, so the log
holds typed, frozen records in emission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, Optional, Type, TypeVar

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
]

E = TypeVar("E", bound="RuntimeEvent")


@dataclass(frozen=True, slots=True)
class RuntimeEvent:
    """Base record: every event carries its simulated timestamp."""

    KIND: ClassVar[str] = "event"

    time: float


@dataclass(frozen=True, slots=True)
class ActivationEvent(RuntimeEvent):
    """An actor was activated (hosted) on a silo."""

    KIND: ClassVar[str] = "activation"

    server: int = 0
    actor: str = ""


@dataclass(frozen=True, slots=True)
class DeactivationEvent(RuntimeEvent):
    """An actor finished deactivating (idle collection or migration)."""

    KIND: ClassVar[str] = "deactivation"

    server: int = 0
    actor: str = ""
    migration_hint: Optional[int] = None  # destination silo, None = plain GC


@dataclass(frozen=True, slots=True)
class MigrationEvent(RuntimeEvent):
    """One opportunistic migration committed (§4.3)."""

    KIND: ClassVar[str] = "migration"

    actor: str = ""
    source: int = 0
    destination: int = 0


@dataclass(frozen=True, slots=True)
class SiloLifecycleEvent(RuntimeEvent):
    """A silo crashed or came back."""

    KIND: ClassVar[str] = "silo"

    server: int = 0
    up: bool = True
    activations_lost: int = 0


@dataclass(frozen=True, slots=True)
class PartitionRoundEvent(RuntimeEvent):
    """One Alg.-1 initiation on a silo (§4.2)."""

    KIND: ClassVar[str] = "partition_round"

    server: int = 0
    proposals: int = 0   # ranked peers worth trying this round
    candidates: int = 0  # candidate-set size k used


@dataclass(frozen=True, slots=True)
class ExchangeEvent(RuntimeEvent):
    """Outcome of one pairwise exchange attempt, as seen by the initiator."""

    KIND: ClassVar[str] = "exchange"

    initiator: int = 0
    target: int = 0
    accepted: bool = False
    moves: int = 0       # |S0| + |T0|
    sent: int = 0        # |S0|: initiator -> target
    received: int = 0    # |T0|: target -> initiator
    estimated_gain: float = 0.0
    reason: str = ""     # rejection reason when not accepted


@dataclass(frozen=True, slots=True)
class ThreadAllocationEvent(RuntimeEvent):
    """A thread controller re-allocated a server's stage pools (§5)."""

    KIND: ClassVar[str] = "thread_allocation"

    server: str = ""
    allocation: dict[str, int] = None  # type: ignore[assignment]
    alpha: float = 0.0
    feasible: bool = True
    controller: str = "model"  # "model" (§5.3) or "queue" ([34]-style)


@dataclass(frozen=True, slots=True)
class FaultInjectionEvent(RuntimeEvent):
    """One fault-plan action began or ended (see :mod:`repro.faults`)."""

    KIND: ClassVar[str] = "fault"

    fault: str = ""      # action class name, e.g. "SiloCrash"
    phase: str = "start"  # "start" or "end"
    detail: dict[str, Any] = None  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class RetryEvent(RuntimeEvent):
    """A timed-out client request was re-dispatched with backoff."""

    KIND: ClassVar[str] = "retry"

    target: str = ""
    method: str = ""
    attempt: int = 0      # the attempt that just failed (1-based)
    backoff: float = 0.0  # scheduled delay before the next attempt


@dataclass(frozen=True, slots=True)
class ShedEvent(RuntimeEvent):
    """Admission control shed a client request."""

    KIND: ClassVar[str] = "shed"

    target: str = ""
    method: str = ""
    policy: str = "reject"   # which shedding policy fired
    victim_age: float = 0.0  # in-flight time of a drop_oldest victim


@dataclass(frozen=True, slots=True)
class FailoverEvent(RuntimeEvent):
    """Placement routed around a dead silo (§2 fault tolerance)."""

    KIND: ClassVar[str] = "failover"

    actor: str = ""
    dead_server: int = 0
    new_server: int = 0


MAX_EVENTS = 1_000_000   # EventLog's cap; later events are counted as dropped


class EventLog:
    """Append-only log of runtime events, bounded at :data:`MAX_EVENTS`."""

    def __init__(self):
        self.events: list[RuntimeEvent] = []
        self.dropped = 0

    def emit(self, event: RuntimeEvent) -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append(event)

    def of_kind(self, event_type: Type[E]) -> list[E]:
        """All recorded events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventLog({len(self.events)} events, dropped={self.dropped})"
