"""Asynchronous call primitives yielded from actor methods.

Actor methods are written as generators; ``yield Call(...)`` suspends the
turn until the response arrives, and ``yield All([...])`` fans out and
joins — the shape of the Halo game actor's broadcast (§3).  These objects
are pure descriptions; the silo's turn executor interprets them.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .ids import ActorRef

__all__ = ["Call", "All", "Sleep", "Tell"]


class Call:
    """A single actor-to-actor request awaiting one response.

    ``timeout`` (seconds, in workload time units) overrides the cluster's
    default call timeout for this call only; None inherits the default.
    """

    __slots__ = ("target", "method", "args", "size", "response_size", "timeout")

    def __init__(
        self,
        target: ActorRef,
        method: str,
        *args: Any,
        size: int = 256,
        response_size: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        self.target = target
        self.method = method
        self.args = args
        self.size = size
        self.response_size = response_size if response_size is not None else size // 2 or 64
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"Call({self.target}.{self.method})"


class All:
    """Fan-out join: issue every call concurrently, resume with the list
    of results in call order."""

    __slots__ = ("calls",)

    def __init__(self, calls: Sequence[Call]):
        self.calls = list(calls)
        if not self.calls:
            raise ValueError("All() needs at least one call")

    def __repr__(self) -> str:
        return f"All({len(self.calls)} calls)"


class Tell:
    """A fire-and-forget message: dispatched immediately, no response,
    and the yielding turn resumes at once without suspending.  The
    one-way pattern of classic actor systems (Akka/Erlang casts)."""

    __slots__ = ("target", "method", "args", "size")

    def __init__(self, target: ActorRef, method: str, *args: Any,
                 size: int = 256):
        self.target = target
        self.method = method
        self.args = args
        self.size = size

    def __repr__(self) -> str:
        return f"Tell({self.target}.{self.method})"


class Sleep:
    """Suspend the turn for a simulated duration without holding a thread.

    Used by workload actors for think time (e.g. a player idling between
    heartbeats when the behavior is driven from inside the actor)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration})"
