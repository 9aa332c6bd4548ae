"""The backend seam: one protocol, two engines.

Everything above this line — actor programs, ``FaultPlan``s, workloads,
pools — talks to a :class:`Backend`: spawn an actor somewhere, send it a
one-way message, call it and get the result back through a completion
hook, schedule a timer on the backend's :class:`Clock`, and draw from
its seeded RNG registry.  Below the line one runtime core
(:mod:`repro.actor.core`) is driven two ways:

* :class:`~repro.actor.runtime.ActorRuntime` — the discrete-event
  simulator, the **reference implementation**: deterministic, seeded,
  bit-identical digests.
* :class:`~repro.backend.asyncio_backend.AsyncioBackend` — the real
  runtime: silos as callback turn machines on one loop, TCP
  sockets between silos, wall-clock timers.

Both satisfy :class:`Backend` structurally (the core implements the
seams once); neither inherits from it, so this module stays importable
from either side.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional, Protocol, runtime_checkable

from ..actor.ids import ActorId, ActorRef

__all__ = ["Backend", "BackendError", "Clock"]


class BackendError(RuntimeError):
    """A backend cannot satisfy the requested configuration.

    Raised at *build* time (``build_cluster(backend=...)``) — never mid
    run — so an unsupported layer/fault/policy combination fails loudly
    before any traffic flows.
    """


@runtime_checkable
class Clock(Protocol):
    """The time seam both engines expose.

    The simulator's :class:`~repro.sim.engine.Simulator` satisfies this
    natively (virtual time); the asyncio backend's ``WallClock`` maps it
    onto ``loop.time()`` and ``loop.call_later``.  ``schedule``/``defer``
    return a cancellable timer handle (an object with ``.cancel()``).
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any: ...

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any: ...


@runtime_checkable
class Backend(Protocol):
    """One concrete actor engine behind the backend-neutral API.

    The five seams — ``spawn``/``send``/``call``/``clock``/``rng`` — plus
    lifecycle (``start``/``run``/``shutdown``) and registration.  The
    ``runtime`` property returns the object workloads drive; both
    engines return themselves.
    """

    #: Short identifier (``"sim"`` / ``"asyncio"``) used by CLIs and errors.
    name: str

    def register_actor(self, actor_type: str, cls: type) -> None:
        """Register an application actor class under a type name."""

    def ref(self, actor_type: str, key: Hashable) -> ActorRef:
        """A location-transparent handle for one logical actor."""

    def spawn(self, ref: ActorRef, server: Optional[int] = None) -> int:
        """Eagerly activate ``ref`` (idempotent), returning its silo."""

    def send(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256) -> None:
        """Fire-and-forget one-way message from outside the cluster."""

    def call(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256, response_size: int = 256,
             on_complete: Optional[Callable[[float, Any], None]] = None,
             idempotent: bool = True) -> None:
        """Request/response from outside the cluster.

        ``on_complete(latency, result)`` fires when the response (or an
        :class:`~repro.actor.errors.ActorError` outcome) arrives.
        """

    @property
    def clock(self) -> Clock:
        """The engine's time source (virtual or wall)."""

    @property
    def rng(self):
        """The seeded :class:`~repro.sim.rng.RngRegistry` of named substreams."""

    @property
    def runtime(self):
        """The runtime-shaped facade workloads and pools drive."""

    def start(self) -> "Backend":
        """Bring the engine up (open transports, arm timers). Idempotent."""

    def run(self, until: Optional[float] = None) -> None:
        """Advance the engine: to virtual time ``until`` (sim) or for the
        equivalent wall-clock window (asyncio); ``None`` runs to idle."""

    def shutdown(self) -> None:
        """Release engine resources (sockets, loops). Idempotent."""

    def locate(self, actor_id: ActorId) -> Optional[int]:
        """Directory lookup: which silo hosts ``actor_id`` (None = none)."""
