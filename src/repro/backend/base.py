"""The error a driver raises for a configuration it cannot run.

One runtime core (:mod:`repro.actor.core`) is driven two ways:

* :class:`~repro.actor.runtime.ActorRuntime` — the discrete-event
  simulator, the **reference implementation**: deterministic, seeded,
  bit-identical digests.
* :class:`~repro.backend.asyncio_backend.AsyncioBackend` — the real
  runtime: silos as callback turn machines on one loop, TCP
  sockets between silos, wall-clock timers.

Both subclass :class:`~repro.actor.core.ClusterCore`, so the core's
methods are the one API; this module keeps only the build-time error,
importable from either side.
"""

from __future__ import annotations

__all__ = ["BackendError"]


class BackendError(RuntimeError):
    """A backend cannot satisfy the requested configuration.

    Raised at *build* time (``build_cluster(backend=...)``) — never mid
    run — so an unsupported layer/fault/policy combination fails loudly
    before any traffic flows.
    """
