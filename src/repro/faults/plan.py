"""Declarative fault plans: *what* goes wrong, *when*.

A :class:`FaultPlan` is a pure description — an ordered list of fault
actions with times relative to injector start.  Nothing here touches a
simulator or an RNG; the :class:`~repro.faults.injector.FaultInjector`
turns the plan into scheduled events against a live cluster.

The action vocabulary covers the failure modes the paper's §2 contract
and evaluation imply but never drives systematically:

* :class:`SiloCrash` / :class:`SiloRestart` — fail-stop silo loss and
  recovery (volatile state lost, re-activation elsewhere on next call).
* :class:`NetworkPartition` — two silo groups stop exchanging messages
  for a window (messages between them are dropped deterministically).
* :class:`LinkDegradation` — probabilistic drop / added delay /
  duplication on matching links for a window.
* :class:`SlowSilo` — one silo's compute runs ``factor``× slower for a
  window (a straggler / noisy-neighbour model).
* :class:`DirectoryStaleness` — deactivate a sample of registered actors
  and poison location caches with wrong hints, exercising the stale-hint
  re-placement path of §4.3.

Builder methods return ``self`` so plans chain::

    plan = (FaultPlan()
            .crash(at=20.0, server=3)
            .restart(at=35.0, server=3)
            .degrade(at=10.0, until=30.0, drop=0.05))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "FaultAction",
    "SiloCrash",
    "SiloRestart",
    "NetworkPartition",
    "LinkDegradation",
    "SlowSilo",
    "DirectoryStaleness",
    "FaultPlan",
]


@dataclass(frozen=True)
class SiloCrash:
    """Fail-stop crash of one silo at ``at`` (seconds after start)."""

    at: float
    server: int


@dataclass(frozen=True)
class SiloRestart:
    """Bring a crashed silo back, empty and ready to host."""

    at: float
    server: int


@dataclass(frozen=True)
class NetworkPartition:
    """Silos in ``group_a`` cannot reach ``group_b`` during [at, until).

    Messages crossing the cut are dropped deterministically (no RNG
    draw).  Client links (src/dst ``None``) are never partitioned — the
    partition models the inter-silo fabric, not the front door.
    """

    at: float
    until: float
    group_a: frozenset
    group_b: frozenset

    def separates(self, src: Optional[int], dst: Optional[int]) -> bool:
        if src is None or dst is None:
            return False
        a, b = self.group_a, self.group_b
        return (src in a and dst in b) or (src in b and dst in a)


@dataclass(frozen=True)
class LinkDegradation:
    """Probabilistic link faults on matching messages during [at, until).

    ``src``/``dst`` of ``None`` are wildcards (match anything, including
    the client side of a link).  Effects compose across overlapping
    degradations: drop/duplicate probabilities combine independently,
    added delays sum.
    """

    at: float
    until: float
    drop: float = 0.0       # P(message silently lost)
    delay: float = 0.0      # seconds added to every transit
    duplicate: float = 0.0  # P(message delivered twice)
    src: Optional[int] = None
    dst: Optional[int] = None

    def matches(self, src: Optional[int], dst: Optional[int]) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class SlowSilo:
    """One silo computes ``factor``× slower during [at, until)."""

    at: float
    until: float
    server: int
    factor: float = 2.0


@dataclass(frozen=True)
class DirectoryStaleness:
    """Deactivate ``count`` random registered actors and plant wrong
    location-cache hints for them on every silo, at ``at``."""

    at: float
    count: int = 1


FaultAction = Union[SiloCrash, SiloRestart, NetworkPartition,
                    LinkDegradation, SlowSilo, DirectoryStaleness]

_WINDOWED = (NetworkPartition, LinkDegradation, SlowSilo)
_NETWORK = (NetworkPartition, LinkDegradation)


class FaultPlan:
    """An ordered, validated collection of fault actions."""

    def __init__(self, actions: Optional[list] = None):
        self.actions: list[FaultAction] = []
        for action in actions or []:
            self.add(action)

    # ------------------------------------------------------------------
    # Generic + chainable builders
    # ------------------------------------------------------------------
    def add(self, action: FaultAction) -> "FaultPlan":
        _validate(action)
        self.actions.append(action)
        return self

    def crash(self, at: float, server: int) -> "FaultPlan":
        return self.add(SiloCrash(at, server))

    def restart(self, at: float, server: int) -> "FaultPlan":
        return self.add(SiloRestart(at, server))

    def partition(self, at: float, until: float,
                  group_a, group_b) -> "FaultPlan":
        return self.add(NetworkPartition(at, until,
                                         frozenset(group_a),
                                         frozenset(group_b)))

    def degrade(self, at: float, until: float, *, drop: float = 0.0,
                delay: float = 0.0, duplicate: float = 0.0,
                src: Optional[int] = None,
                dst: Optional[int] = None) -> "FaultPlan":
        return self.add(LinkDegradation(at, until, drop, delay, duplicate,
                                        src, dst))

    def slow_silo(self, at: float, until: float, server: int,
                  factor: float = 2.0) -> "FaultPlan":
        return self.add(SlowSilo(at, until, server, factor))

    def stale_directory(self, at: float, count: int = 1) -> "FaultPlan":
        return self.add(DirectoryStaleness(at, count))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self.actions

    @property
    def has_network_faults(self) -> bool:
        return any(isinstance(a, _NETWORK) for a in self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ", ".join(type(a).__name__ for a in self.actions)
        return f"FaultPlan([{kinds}])"


def _validate(action: FaultAction) -> None:
    if action.at < 0:
        raise ValueError(f"{type(action).__name__}.at must be >= 0")
    if isinstance(action, _WINDOWED) and action.until <= action.at:
        raise ValueError(
            f"{type(action).__name__} window must end after it starts "
            f"(at={action.at}, until={action.until})")
    if isinstance(action, LinkDegradation):
        for name in ("drop", "duplicate"):
            p = getattr(action, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"LinkDegradation.{name} must be in [0, 1]")
        if action.delay < 0:
            raise ValueError("LinkDegradation.delay must be >= 0")
    if isinstance(action, NetworkPartition):
        if not action.group_a or not action.group_b:
            raise ValueError("partition groups must be non-empty")
        if action.group_a & action.group_b:
            raise ValueError("partition groups must be disjoint")
    if isinstance(action, SlowSilo) and action.factor < 1.0:
        raise ValueError("SlowSilo.factor must be >= 1")
    if isinstance(action, DirectoryStaleness) and action.count < 1:
        raise ValueError("DirectoryStaleness.count must be >= 1")
