"""The ping actor pair of the end-to-end benchmark's latency workload.

One :class:`PingerActor` and one :class:`PongerActor`; every client
request drives one round trip (``ping -> Call(pong) -> response``).
``benchmarks/e2e/workloads.py`` pins them to two silos, so over the TCP
transport each round trip pays two real socket hops with pickle framing
(``aio_ping_tcp``: the floor of what the real runtime adds over the
pure-python actor machinery); the backend parity tests run the same pair
on every engine.
"""

from __future__ import annotations

from ..actor.actor import Actor
from ..actor.calls import Call
from ..actor.ids import ActorRef

__all__ = ["PingerActor", "PongerActor"]


class PongerActor(Actor):
    """Replies with its bounce count (state survives restarts)."""

    def __init__(self) -> None:
        super().__init__()
        self.bounces = 0

    def pong(self, n: int) -> int:
        self.bounces += 1
        return n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PongerActor(bounces={self.bounces})"


class PingerActor(Actor):
    """One ``ping`` turn = one cross-silo call to its ponger."""

    def __init__(self) -> None:
        super().__init__()
        self.pings = 0

    def ping(self, n: int):
        """Replay-safe: ``pings`` is a liveness counter, never an exact
        count, and the ponger's bounce is itself idempotent."""
        self.pings += 1
        result = yield Call(ActorRef("ponger", 0), "pong", n, size=64)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PingerActor(pings={self.pings})"
