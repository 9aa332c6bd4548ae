"""``repro.backend``: one actor API, two engines (ROADMAP item 2).

* :class:`Backend` — the protocol: ``spawn``/``send``/``call`` seams, a
  :class:`Clock`, a seeded RNG registry, and a runtime-shaped facade.
* :class:`SimBackend` — the discrete-event simulator (the reference
  implementation; seeded digests are bit-identical to pre-backend
  builds).
* :class:`AsyncioBackend` — the real runtime: a callback turn machine
  per silo, TCP (or in-process) transport between silos, wall-clock
  timers, and :class:`SupervisionPolicy` crash handling layered on the
  same :class:`~repro.faults.plan.FaultPlan` crash vocabulary.

Select an engine through the one construction path::

    cluster = build_cluster(ClusterConfig(num_servers=2),
                            backend="asyncio", transport="tcp")
"""

from .asyncio_backend import DEFAULT_CALL_TIMEOUT, AsyncioBackend, WallClock
from .base import Backend, BackendError, Clock
from .bench import PingerActor, PongerActor, ping_latency
from .faults import SUPPORTED_ACTIONS, AsyncioFaultInjector
from .sim import SimBackend
from .supervision import SupervisionPolicy, Supervisor

__all__ = [
    "AsyncioBackend",
    "AsyncioFaultInjector",
    "Backend",
    "BackendError",
    "Clock",
    "DEFAULT_CALL_TIMEOUT",
    "PingerActor",
    "PongerActor",
    "SUPPORTED_ACTIONS",
    "SimBackend",
    "SupervisionPolicy",
    "Supervisor",
    "WallClock",
    "ping_latency",
]
