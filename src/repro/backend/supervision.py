"""Supervision policies: what happens when an actor turn crashes.

With no policy, a non-``ActorError`` exception inside a turn is a bug in
the *simulation* and crashes the run loudly — correct for a
deterministic model (the simulator's default), useless for a live
runtime where application code throws for real (the asyncio driver
defaults to ``restart``).  Given a policy, the runtime core
(``SiloCore._crash_turn``, under either driver) layers classic
supervision-tree semantics (Erlang/OTP restart strategies, as catalogued
in the actor-model pattern notes) on top of the Orleans re-activation
contract:

* ``restart`` — re-instantiate the actor in place from its last
  *persisted* state, up to ``max_restarts`` crashes within a sliding
  ``window``; past the budget, fall through to ``on_exhaustion``.
* ``stop`` — mark the activation stopped; subsequent messages fail with
  an :class:`~repro.actor.errors.ActorError` instead of re-running
  broken code.
* ``escalate`` — the failure is the silo's: fail the whole silo, losing
  its volatile state, exactly like a :class:`~repro.faults.plan.SiloCrash`
  — the next call re-places every hosted actor elsewhere (§2's
  fault-tolerance contract), which is how an escalation ultimately
  *heals*.

Whatever the decision, the caller always observes the crash as an
:class:`~repro.actor.errors.ActorCrashed` result at its await point —
supervision decides the *actor's* fate, never silently swallows the
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..actor.ids import ActorId

__all__ = ["SupervisionPolicy", "Supervisor"]

_STRATEGIES = ("restart", "stop", "escalate")
_EXHAUSTION = ("escalate", "stop")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Declarative crash-handling policy for one backend.

    Attributes:
        strategy: ``restart`` | ``stop`` | ``escalate`` — the decision
            for a crashing actor (``restart`` is the OTP default and
            ours).
        max_restarts: restart budget per actor within ``window`` (only
            meaningful for ``restart``).  The budget counts *crashes*:
            the (max_restarts+1)-th crash inside the window exhausts it.
        window: sliding window (seconds, backend clock) over which
            crashes are counted toward the budget.
        on_exhaustion: ``escalate`` | ``stop`` — what a budget-exhausted
            actor gets instead of another restart.
    """

    strategy: str = "restart"
    max_restarts: int = 3
    window: float = 30.0
    on_exhaustion: str = "escalate"

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown supervision strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}")
        if self.on_exhaustion not in _EXHAUSTION:
            raise ValueError(
                f"unknown on_exhaustion {self.on_exhaustion!r}; "
                f"expected one of {_EXHAUSTION}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.window <= 0:
            raise ValueError("window must be > 0")


class Supervisor:
    """Per-cluster crash bookkeeping: applies a :class:`SupervisionPolicy`.

    Pure decision logic — the runtime core executes the verdict
    (re-binding the instance, marking the activation stopped, failing
    the silo).  Kept separate so the budget/window arithmetic is
    unit-testable without a cluster.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None):
        self.policy = policy or SupervisionPolicy()
        self._crashes: dict[ActorId, list[float]] = {}
        self.restarts = 0
        self.stops = 0
        self.escalations = 0

    def decide(self, actor_id: ActorId, now: float) -> str:
        """Record one crash of ``actor_id`` at ``now``; return the verdict
        (``restart`` / ``stop`` / ``escalate``)."""
        policy = self.policy
        if policy.strategy == "restart":
            window_start = now - policy.window
            history = [t for t in self._crashes.get(actor_id, ())
                       if t > window_start]
            history.append(now)
            self._crashes[actor_id] = history
            decision = ("restart" if len(history) <= policy.max_restarts
                        else policy.on_exhaustion)
        else:
            decision = policy.strategy
        if decision == "restart":
            self.restarts += 1
        elif decision == "stop":
            self.stops += 1
        else:
            self.escalations += 1
        return decision

    def crashes_in_window(self, actor_id: ActorId, now: float) -> int:
        """How many recorded crashes of ``actor_id`` are inside the
        policy window at ``now`` (introspection for tests/benches)."""
        window_start = now - self.policy.window
        return sum(1 for t in self._crashes.get(actor_id, ())
                   if t > window_start)

    def forget(self, actor_id: ActorId) -> None:
        """Drop crash history (e.g. after the silo hosting it failed)."""
        self._crashes.pop(actor_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Supervisor({self.policy.strategy!r}, "
                f"restarts={self.restarts}, stops={self.stops}, "
                f"escalations={self.escalations})")
