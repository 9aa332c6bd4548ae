"""Failure-handling primitives.

Orleans promises (§2): "the system automatically handles hardware or
software failures by re-instantiating the failed actor upon the next
call to it."  Our runtime mirrors that contract:

* calls carry an optional timeout; a response that never arrives (e.g.
  its target silo died) resolves the await by *throwing*
  :class:`CallTimeout` into the suspended turn;
* application errors raised by an actor method travel back to the caller
  as an :class:`ActorError` and are re-thrown at the await point;
* a failed silo loses its volatile actor state; the next call to any of
  its actors re-activates the actor elsewhere from the last persisted
  state.
"""

from __future__ import annotations

import pickle

__all__ = ["ActorCrashed", "ActorError", "CallTimeout", "RequestShed"]


class ActorError(Exception):
    """An error crossing an actor boundary.

    When an actor method raises ``ActorError`` (or a subclass), the error
    becomes the call's result and is re-raised inside the calling actor's
    turn at its ``yield`` — or handed to the client's completion hook.
    Any *other* exception type is considered a bug in the simulation and
    propagates, crashing the run loudly.
    """


class CallTimeout(ActorError):
    """The response did not arrive within the configured call timeout."""

    def __init__(self, target, method: str, timeout: float):
        super().__init__(f"call to {target}.{method} timed out after {timeout}s")
        self.target = target
        self.method = method
        self.timeout = timeout

    def __reduce__(self):
        # Exceptions with multi-arg __init__ need an explicit recipe to
        # survive pickling (the asyncio backend ships error results over
        # real sockets between silos).
        return (CallTimeout, (self.target, self.method, self.timeout))


class ActorCrashed(ActorError):
    """An actor turn raised a non-:class:`ActorError` exception.

    On the simulator this is a bug and crashes the run; on the asyncio
    backend it is a *supervision* event: the policy decides the actor's
    fate (restart / stop / escalate) and the caller's await point sees
    this error as the call's result — crashes never vanish silently.
    ``cause`` carries the original exception; across a pickling
    transport, a stand-in with its ``repr`` when the original would not
    unpickle on the other side.
    """

    def __init__(self, actor_id, method: str, cause: BaseException):
        super().__init__(
            f"actor {actor_id} crashed in {method!r}: {cause!r}")
        self.actor_id = actor_id
        self.method = method
        self.cause = cause

    def __reduce__(self):
        cause = self.cause
        try:
            pickle.loads(pickle.dumps(cause, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # noqa: BLE001 — pickle raises many types
            cause = _CauseRepr(repr(cause))
        return (ActorCrashed, (self.actor_id, self.method, cause))


class _CauseRepr(Exception):
    """What crosses a silo boundary in place of a crash cause that would
    not unpickle there: the original's ``repr``, shown as its own."""

    def __repr__(self) -> str:
        return self.args[0]


class RequestShed(ActorError):
    """Admission control shed this request before it entered the cluster.

    Raised at the client's completion hook only — shedding is a
    client-edge decision (graceful degradation under overload), so no
    actor ever observes it.
    """

    def __init__(self, target, method: str, policy: str):
        super().__init__(
            f"request to {target}.{method} shed by admission control "
            f"({policy})")
        self.target = target
        self.method = method
        self.policy = policy
