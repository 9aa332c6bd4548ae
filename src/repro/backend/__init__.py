"""``repro.backend``: one actor API, one runtime core, two engines.

* :class:`AsyncioBackend` — the real runtime: the asyncio driver of
  :mod:`repro.actor.core` — ready deques run by one loop callback per
  iteration, TCP (or in-process) transport, wall-clock timers.
* :class:`SupervisionPolicy` — crash handling (restart / stop /
  escalate), applied by the core under either engine.  One
  :class:`~repro.faults.injector.FaultInjector` drives both as well.
* :class:`BackendError` — what a driver raises at build time for a
  configuration it cannot run.

Both engines subclass :class:`~repro.actor.core.ClusterCore` (the
simulator's :class:`~repro.actor.runtime.ActorRuntime` is the reference
implementation), so the core's methods are the one API.

Select an engine through the one construction path::

    cluster = build_cluster(ClusterConfig(num_servers=2),
                            backend="asyncio", transport="tcp")
"""

from .asyncio_backend import DEFAULT_CALL_TIMEOUT, AsyncioBackend, WallClock
from .base import BackendError
from .bench import PingerActor, PongerActor
from .supervision import SupervisionPolicy, Supervisor

__all__ = [
    "AsyncioBackend",
    "BackendError",
    "DEFAULT_CALL_TIMEOUT",
    "PingerActor",
    "PongerActor",
    "SupervisionPolicy",
    "Supervisor",
    "WallClock",
]
