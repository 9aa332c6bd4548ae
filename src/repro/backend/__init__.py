"""``repro.backend``: one actor API, one runtime core, two engines.

* :class:`Backend` — the protocol: ``spawn``/``send``/``call`` seams, a
  :class:`Clock`, a seeded RNG registry, and a runtime-shaped facade.
  The simulator's :class:`~repro.actor.runtime.ActorRuntime` satisfies
  it directly (the reference implementation).
* :class:`AsyncioBackend` — the real runtime: the asyncio driver of
  :mod:`repro.actor.core` — a ready deque per silo, TCP (or in-process)
  transport between silos, wall-clock timers.
* :class:`SupervisionPolicy` — crash handling (restart / stop /
  escalate), applied by the core under either engine.  One
  :class:`~repro.faults.injector.FaultInjector` drives both as well.

Select an engine through the one construction path::

    cluster = build_cluster(ClusterConfig(num_servers=2),
                            backend="asyncio", transport="tcp")
"""

from .asyncio_backend import DEFAULT_CALL_TIMEOUT, AsyncioBackend, WallClock
from .base import Backend, BackendError, Clock
from .bench import PingerActor, PongerActor
from .supervision import SupervisionPolicy, Supervisor

__all__ = [
    "AsyncioBackend",
    "Backend",
    "BackendError",
    "Clock",
    "DEFAULT_CALL_TIMEOUT",
    "PingerActor",
    "PongerActor",
    "SupervisionPolicy",
    "Supervisor",
    "WallClock",
]
