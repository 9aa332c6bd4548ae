"""The backend seam: one protocol, two engines.

Everything above this line — actor programs, ``FaultPlan``s, workloads,
pools — talks to a :class:`Backend`: spawn an actor somewhere, send it a
one-way message, call it and get the result back through a completion
hook, schedule a timer on the backend's :class:`Clock`, and draw from
its seeded RNG registry.  Below the line live two concrete engines:

* :class:`~repro.backend.sim.SimBackend` — the discrete-event simulator
  (:class:`~repro.actor.runtime.ActorRuntime`), the **reference
  implementation**: deterministic, seeded, bit-identical digests.
* :class:`~repro.backend.asyncio_backend.AsyncioBackend` — the real
  runtime: silos as callback turn machines on one loop, TCP
  sockets between silos, wall-clock timers, and supervision policies.

The split is ROADMAP item 2 — "the substitution table in reverse": the
DESIGN table maps Orleans primitives onto simulated ones; the asyncio
backend maps the same programs back onto real concurrency.
"""

from __future__ import annotations

import abc
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


class Backend(abc.ABC):
    """One concrete actor engine behind the backend-neutral API.

    Subclasses provide the five seams named by ROADMAP item 2 —
    ``spawn``/``send``/``call``/``clock``/``rng`` — plus lifecycle
    (``start``/``run``/``shutdown``) and registration.  The ``runtime``
    property returns the object workloads drive: the wrapped
    :class:`~repro.actor.runtime.ActorRuntime` for the simulator, the
    backend itself (a runtime-shaped facade) for asyncio — so the same
    workload code runs unmodified on either engine.
    """

    #: Short identifier (``"sim"`` / ``"asyncio"``) used by CLIs and errors.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Registration and addressing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def register_actor(self, actor_type: str, cls: type) -> None:
        """Register an application actor class under a type name."""

    @abc.abstractmethod
    def ref(self, actor_type: str, key: Hashable) -> ActorRef:
        """A location-transparent handle for one logical actor."""

    # ------------------------------------------------------------------
    # The five seams
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def spawn(self, ref: ActorRef, server: Optional[int] = None) -> int:
        """Eagerly activate ``ref`` (idempotent), returning its silo.

        ``server`` is a placement preference; a dead/draining preference
        folds into the live set.  Without it the backend's placement
        policy decides.  Actors not spawned explicitly still activate
        lazily on first message — Orleans' virtual-actor contract.
        """

    @abc.abstractmethod
    def send(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256) -> None:
        """Fire-and-forget one-way message from outside the cluster."""

    @abc.abstractmethod
    def call(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256, response_size: int = 256,
             on_complete: Optional[Callable[[float, Any], None]] = None,
             idempotent: bool = True) -> Any:
        """Request/response from outside the cluster.

        ``on_complete(latency, result)`` fires when the response (or an
        :class:`~repro.actor.errors.ActorError` outcome) arrives.
        """

    @property
    @abc.abstractmethod
    def clock(self) -> Clock:
        """The engine's time source (virtual or wall)."""

    @property
    @abc.abstractmethod
    def rng(self):
        """The seeded :class:`~repro.sim.rng.RngRegistry` of named substreams."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def runtime(self):
        """The runtime-shaped facade workloads and pools drive."""

    def start(self) -> "Backend":
        """Bring the engine up (open transports, arm timers). Idempotent."""
        return self

    @abc.abstractmethod
    def run(self, until: Optional[float] = None) -> None:
        """Advance the engine: to virtual time ``until`` (sim) or for the
        equivalent wall-clock window (asyncio); ``None`` runs to idle."""

    def shutdown(self) -> None:
        """Release engine resources (sockets, loops). Idempotent."""

    # ------------------------------------------------------------------
    def locate(self, actor_id: ActorId) -> Optional[int]:
        """Directory lookup: which silo hosts ``actor_id`` (None = none)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
