"""``build_cluster``: the one entry point that composes the layered configs.

Construction used to be scattered — ``ActorRuntime`` took machine knobs
plus a couple of resilience fields, ``ActOp`` took two optional configs,
fault plans had nowhere to live, and every bench re-implemented the
wiring.  The layered API separates the concerns:

* :class:`~repro.actor.runtime.ClusterConfig` — the machine: silos,
  processors, network, serialization, time scale, seed.
* :class:`~repro.faults.resilience.ResilienceConfig` — behaviour between
  request and outcome: timeouts, deadlines, retry, admission/shedding.
* :class:`~repro.core.actop.ActOpConfig` — the optimizer: partitioning
  and/or thread allocation.
* :class:`~repro.faults.plan.FaultPlan` — scheduled chaos.
* ``backend`` — which engine drives the one runtime core: the
  deterministic simulator (``"sim"``, the reference implementation) or
  the real asyncio runtime (``"asyncio"``: callback turn machines, TCP
  transport, wall-clock time, supervision).

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
to a bare ``ActorRuntime`` (and to pre-backend builds; the digest pins
enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .actor.runtime import ActorRuntime, ClusterConfig
from .autoscale.config import AutoscaleConfig
from .autoscale.controller import AutoscaleController
from .backend.asyncio_backend import DEFAULT_CALL_TIMEOUT, AsyncioBackend
from .backend.base import Backend, BackendError
from .backend.supervision import SupervisionPolicy
from .core.actop import ActOp, ActOpConfig
from .faults.injector import FaultInjector
from .faults.plan import FaultPlan, LinkDegradation, NetworkPartition, SlowSilo
from .faults.resilience import ResilienceConfig
from .sim.engine import Simulator

__all__ = ["BACKENDS", "Cluster", "build_cluster"]

BACKENDS = ("sim", "asyncio")

# What only the simulator runs today; naming it in the asyncio error
# keeps the failure actionable.  Partitioning runs on both.  The rest is
# core code the asyncio driver inherits but nothing has exercised there
# yet (thread allocation needs stage executors): lifting each is its own
# issue.
_SIM_ONLY = ("thread allocation, autoscale, a shared sim, "
             "retry/deadline/admission and modeled-network faults are "
             "simulator-only layers")


@dataclass
class Cluster:
    """A composed cluster: backend + optional optimizer + fault injector
    + optional autoscaler.

    ``runtime`` is the backend-neutral object workloads drive — the
    :class:`~repro.actor.runtime.ActorRuntime` on the simulator, the
    :class:`~repro.backend.asyncio_backend.AsyncioBackend` on the real
    runtime; both are drivers of one :class:`~repro.actor.core.ClusterCore`
    (and ``backend`` is the same object).
    ``actop``, ``injector``, and ``autoscale`` are None when their layer
    was not configured.  :meth:`start` arms whatever is present
    (idempotence is the caller's concern — call it once).  The cluster
    is a context manager: ``with build_cluster(...) as cluster: ...``
    releases backend resources (sockets, loops) on exit.
    """

    runtime: Any
    actop: Optional[ActOp] = None
    injector: Optional[FaultInjector] = None
    autoscale: Optional[AutoscaleController] = None
    backend: Optional[Backend] = None
    _started: bool = field(default=False, repr=False)

    def start(self) -> "Cluster":
        """Arm the backend, optimizer, fault plan, and autoscaler (once)."""
        if self._started:
            raise RuntimeError("Cluster.start() called twice")
        self._started = True
        if self.backend is not None:
            self.backend.start()
        if self.actop is not None:
            self.actop.start()
        if self.injector is not None:
            self.injector.start()
        if self.autoscale is not None:
            self.autoscale.start()
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

    # Convenience pass-throughs the benches lean on.
    @property
    def sim(self):
        return self.runtime.sim

    @property
    def config(self) -> ClusterConfig:
        return self.runtime.config


def build_cluster(
    config: Optional[ClusterConfig] = None,
    *,
    backend: str = "sim",
    resilience: Optional[ResilienceConfig] = None,
    actop: Optional[ActOpConfig] = None,
    faults: Optional[FaultPlan] = None,
    autoscale: Optional[AutoscaleConfig] = None,
    sim: Optional[Simulator] = None,
    supervision: Optional[SupervisionPolicy] = None,
    transport: str = "inproc",
    call_timeout: Optional[float] = None,
) -> Cluster:
    """Compose a cluster from the config layers — the single construction
    path for either engine.

    Args:
        config: machine configuration (defaults to the paper's testbed).
        backend: ``"sim"`` (deterministic discrete-event reference) or
            ``"asyncio"`` (real tasks, sockets, wall-clock time).
        resilience: retry/deadline/admission policies (None = off; the
            sim runtime takes its bit-identical fast path).  The asyncio
            backend honours ``call_timeout`` only and rejects the rest.
        actop: optimizer configuration; None or a disabled config builds
            no optimizer.  Partitioning runs on either backend, thread
            allocation on the simulator only.
        faults: fault plan; None or an empty plan installs nothing.  On
            asyncio the crash/membership/staleness vocabulary is
            supported — network- and CPU-model actions raise
            :class:`BackendError` at build time.
        autoscale: elastic-scaling configuration; None builds no
            controller (sim only).
        sim: an existing simulator to share (tests compose several
            drivers on one clock; sim backend only).
        supervision: crash policy for the asyncio backend
            (restart/stop/escalate with a max-restart budget).
        transport: asyncio inter-silo transport, ``"inproc"``,
            ``"inproc-copy"`` (in-process hop with TCP's pickle
            deep-copy semantics), or ``"tcp"``.
        call_timeout: asyncio wall-clock call timeout override (defaults
            to ``resilience.call_timeout`` when given, else 5 s).

    Returns a :class:`Cluster`; call :meth:`Cluster.start` (or just
    :meth:`Cluster.run`) to arm the backend, optimizer, fault plan, and
    autoscaler.
    """
    if backend not in BACKENDS:
        raise BackendError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")

    if backend == "asyncio":
        return _build_asyncio(config, resilience=resilience, actop=actop,
                              faults=faults, autoscale=autoscale, sim=sim,
                              supervision=supervision, transport=transport,
                              call_timeout=call_timeout)

    if supervision is not None:
        raise BackendError(
            "supervision policies apply to the asyncio backend only: the "
            "simulator treats in-turn exceptions as bugs in the model "
            "(pass backend='asyncio', or drop supervision=)")
    if transport != "inproc":
        raise BackendError(
            "transport selection applies to the asyncio backend only "
            "(the simulator models its own network)")
    if call_timeout is not None:
        raise BackendError(
            "call_timeout= at build_cluster level is an asyncio knob; on "
            "the simulator pass ResilienceConfig(call_timeout=...)")
    runtime = ActorRuntime(config or ClusterConfig(), sim=sim,
                           resilience=resilience)
    optimizer = (ActOp(runtime, actop)
                 if actop is not None and actop.enabled else None)
    injector = (FaultInjector(runtime, faults)
                if faults is not None and not faults.empty else None)
    controller = (AutoscaleController(runtime, autoscale, actop=optimizer)
                  if autoscale is not None else None)
    return Cluster(runtime=runtime, actop=optimizer, injector=injector,
                   autoscale=controller, backend=runtime)


def _build_asyncio(config, *, resilience, actop, faults, autoscale, sim,
                   supervision, transport, call_timeout) -> Cluster:
    if (autoscale is not None or sim is not None
            or (actop is not None and actop.thread_allocation is not None)):
        raise BackendError(
            f"backend='asyncio' does not support these layers yet "
            f"({_SIM_ONLY}); build with backend='sim' or drop them")
    if resilience is not None:
        unsupported = [name for name in ("retry", "admission",
                                         "request_deadline")
                       if getattr(resilience, name, None) is not None]
        if unsupported:
            raise BackendError(
                f"backend='asyncio' supports ResilienceConfig.call_timeout "
                f"only ({_SIM_ONLY}); unsupported fields set: "
                f"{', '.join(unsupported)}")
        if call_timeout is None:
            call_timeout = resilience.call_timeout
    for action in faults or ():
        if isinstance(action, (SlowSilo, NetworkPartition, LinkDegradation)):
            raise BackendError(
                f"the asyncio backend cannot inject "
                f"{type(action).__name__}: its network and CPUs are real, "
                f"not modeled ({_SIM_ONLY})")
    engine = AsyncioBackend(
        config or ClusterConfig(),
        supervision=supervision,
        transport=transport,
        call_timeout=(call_timeout if call_timeout is not None
                      else DEFAULT_CALL_TIMEOUT))
    optimizer = (ActOp(engine, actop)
                 if actop is not None and actop.enabled else None)
    injector = (FaultInjector(engine, faults)
                if faults is not None and not faults.empty else None)
    return Cluster(runtime=engine, actop=optimizer, injector=injector,
                   backend=engine)
