"""``build_cluster``: the one entry point that composes the layered configs.

* :class:`~repro.actor.runtime.ClusterConfig` — the machine: silos,
  processors, network, serialization, time scale, seed.
* :class:`~repro.faults.resilience.ResilienceConfig` — behaviour between
  request and outcome: timeouts, deadlines, retry, admission/shedding.
* :class:`~repro.backend.supervision.SupervisionPolicy` — what a crashed
  turn means: restart, stop or escalate.
* :class:`~repro.core.actop.ActOpConfig` — the optimizer: partitioning
  and/or thread allocation.
* :class:`~repro.faults.plan.FaultPlan` — scheduled chaos.
* ``backend`` — which engine drives the one runtime core: the
  deterministic simulator (``"sim"``, the reference implementation) or
  the real asyncio runtime (``"asyncio"``: callback turn machines, TCP
  transport, wall-clock time).

::

    cluster = build_cluster(
        ClusterConfig(num_servers=4, seed=7),
        resilience=ResilienceConfig(call_timeout=0.5,
                                    retry=RetryPolicy(max_attempts=3)),
        actop=ActOpConfig(partitioning=PartitioningConfig()),
        faults=FaultPlan().crash(at=20, server=1).restart(at=35, server=1),
    )
    cluster.start()
    cluster.run(until=60.0)

    # Same program, real runtime:
    cluster = build_cluster(ClusterConfig(num_servers=2), backend="asyncio",
                            transport="tcp",
                            supervision=SupervisionPolicy(max_restarts=3))

Every layer defaults to "absent", and absent layers add nothing to the
run — a sim cluster built with only a ``ClusterConfig`` is bit-identical
to a bare ``ActorRuntime`` (the digest pins enforce it).  The layers are
the core's, so they run under either driver; what a driver refuses
(:func:`_unsupported`) is what it physically lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .actor.core import ClusterCore
from .actor.runtime import ActorRuntime, ClusterConfig
from .backend.base import BackendError
from .backend.supervision import SupervisionPolicy, Supervisor
from .core.actop import ActOp, ActOpConfig
from .faults.resilience import ResilienceConfig
from .sim.engine import Simulator

if TYPE_CHECKING:
    from .faults.injector import FaultInjector
    from .faults.plan import FaultPlan

__all__ = ["BACKENDS", "Cluster", "build_cluster"]

BACKENDS = ("sim", "asyncio")


@dataclass
class Cluster:
    """A composed cluster: backend + optional optimizer + fault injector.

    ``runtime`` is the backend-neutral object workloads drive — the
    :class:`~repro.actor.runtime.ActorRuntime` on the simulator, the
    :class:`~repro.backend.asyncio_backend.AsyncioBackend` on the real
    runtime; both are drivers of one :class:`~repro.actor.core.ClusterCore`
    (and ``backend`` is the same object).
    ``actop`` and ``injector`` are None when their layer was not
    configured.  :meth:`start` arms whatever is present
    (idempotence is the caller's concern — call it once).  The cluster
    is a context manager: ``with build_cluster(...) as cluster: ...``
    releases backend resources (sockets, loops) on exit.
    """

    runtime: Any
    actop: Optional[ActOp] = None
    injector: Optional[FaultInjector] = None
    backend: Optional[ClusterCore] = None
    _started: bool = field(default=False, repr=False)

    def start(self) -> "Cluster":
        """Arm the backend, optimizer and fault plan (once)."""
        if self._started:
            raise RuntimeError("Cluster.start() called twice")
        self._started = True
        if self.backend is not None:
            self.backend.start()
        if self.actop is not None:
            self.actop.start()
        if self.injector is not None:
            self.injector.start()
        return self

    def run(self, until: Optional[float] = None) -> None:
        """Drive the engine (starting the cluster first if needed)."""
        if not self._started:
            self.start()
        self.runtime.run(until=until)

    def shutdown(self) -> None:
        """Release backend resources (idempotent; no-op on the sim)."""
        if self.backend is not None:
            self.backend.shutdown()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _unsupported(backend, resilience, actop, faults, sim, transport) -> Optional[str]:
    """Why ``backend`` physically cannot run what was asked, or None.

    The simulator has no sockets; the asyncio driver has no SEDA stages,
    no simulator and no modeled network.  Everything else is the core's
    and runs on both (DESIGN.md, "One runtime core, two drivers", has
    this as a matrix).
    """
    if backend == "sim":
        if transport != "inproc":
            return ("transport= picks how bytes cross real sockets; the "
                    "simulator models its own network")
        return None
    if actop is not None and actop.thread_allocation is not None:
        return ("thread allocation sizes the thread pools of SEDA stages; "
                "an asyncio silo runs its turns on one event loop and has "
                "no stages")
    if sim is not None:
        return ("sim= shares a discrete-event simulator; the asyncio "
                "driver runs on the wall clock")
    if faults:
        from .faults.plan import LinkDegradation, NetworkPartition, SlowSilo

        for action in faults:
            if isinstance(action, (SlowSilo, NetworkPartition, LinkDegradation)):
                return (f"{type(action).__name__} perturbs the modeled network "
                        "and processors; asyncio's sockets and CPU are real")
    admission = resilience.admission if resilience is not None else None
    if admission is not None and admission.receiver_queue is not None:
        return ("AdmissionConfig.receiver_queue bounds the modeled receiver "
                "stage's queue; an asyncio silo has no receiver stage "
                "(AdmissionConfig.capacity works on both)")
    return None


def build_cluster(
    config: Optional[ClusterConfig] = None,
    *,
    backend: str = "sim",
    resilience: Optional[ResilienceConfig] = None,
    actop: Optional[ActOpConfig] = None,
    faults: Optional[FaultPlan] = None,
    sim: Optional[Simulator] = None,
    supervision: Optional[SupervisionPolicy] = None,
    transport: str = "inproc",
) -> Cluster:
    """Compose a cluster from the config layers — the single construction
    path for either engine.

    Args:
        config: machine configuration (defaults to the paper's testbed).
        backend: ``"sim"`` (deterministic discrete-event reference) or
            ``"asyncio"`` (real sockets, wall-clock time).
        resilience: timeout/retry/deadline/admission policies (None =
            off).  On asyncio ``call_timeout`` defaults to 5 s instead
            of "never", and ``AdmissionConfig.receiver_queue`` is
            refused (no receiver stage).
        actop: optimizer configuration; None or a disabled config builds
            no optimizer.  Partitioning runs on either backend, thread
            allocation needs the simulator's SEDA stages.
        faults: fault plan; None or an empty plan installs nothing.  The
            crash/restart/staleness vocabulary runs on both; the
            modeled-network and modeled-CPU actions on the simulator.
        sim: an existing simulator to share (tests compose several
            drivers on one clock; sim backend only).
        supervision: crash policy (restart/stop/escalate with a
            max-restart budget).  None: on the simulator an exception
            escaping a turn is a bug in the model and aborts the run; on
            asyncio the default policy restarts the actor.
        transport: asyncio inter-silo transport, ``"inproc"``,
            ``"inproc-copy"`` (in-process hop with TCP's pickle
            deep-copy semantics), or ``"tcp"``.

    Raises :class:`BackendError` — at build time, never mid run — for
    what the chosen backend physically cannot run.  Returns a
    :class:`Cluster`; call :meth:`Cluster.start` (or just
    :meth:`Cluster.run`) to arm the backend, optimizer and fault plan.
    """
    if backend not in BACKENDS:
        raise BackendError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    reason = _unsupported(backend, resilience, actop, faults, sim, transport)
    if reason is not None:
        raise BackendError(f"backend={backend!r} cannot run this: {reason}")

    config = config or ClusterConfig()
    supervisor = Supervisor(supervision) if supervision is not None else None
    if backend == "asyncio":
        from .backend.asyncio_backend import AsyncioBackend

        runtime = AsyncioBackend(config, resilience=resilience,
                                 supervisor=supervisor, transport=transport)
    else:
        runtime = ActorRuntime(config, sim=sim, resilience=resilience,
                               supervisor=supervisor)
    optimizer = (ActOp(runtime, actop)
                 if actop is not None and actop.enabled else None)
    injector = None
    if faults is not None and not faults.empty:
        from .faults.injector import FaultInjector

        injector = FaultInjector(runtime, faults)
    return Cluster(runtime=runtime, actop=optimizer, injector=injector,
                   backend=runtime)
