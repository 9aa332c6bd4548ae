"""ActOp reproduction — "Optimizing Distributed Actor Systems for Dynamic
Interactive Services" (EuroSys 2016).

The package splits into the paper's contribution and its substrates:

* :mod:`repro.core` — ActOp itself: the distributed locality-aware actor
  partitioning algorithm (§4) and the model-driven SEDA thread-allocation
  optimizer (§5), plus the integrated :class:`~repro.core.ActOp` facade.
* :mod:`repro.actor` — an Orleans-like virtual-actor runtime (what the
  paper prototypes against), running on a discrete-event simulation.
* :mod:`repro.seda` — SEDA stages, the staged-server chassis, and the
  standalone pipeline emulator of §5.1.
* :mod:`repro.sim` — the simulation substrate: event engine, simulated
  processors with a run queue, network, deterministic RNG streams.
* :mod:`repro.graph` — communication graphs, Space-Saving edge sampling,
  generators, and the comparator partitioners (multilevel, Ja-Be-Ja).
* :mod:`repro.queueing` — the Jackson latency proxy (Eq. (1)) over
  measured per-stage rates.
* :mod:`repro.workloads` — Halo Presence, Heartbeat, the counter app,
  and Stageflow (an inference pipeline over actor pools).
* :mod:`repro.pools` — data-parallel actor pools: a router actor
  fronting N worker replicas with pluggable balancing policies.
* :mod:`repro.bench` — recorders and harness utilities.
* :mod:`repro.obs` — the runtime event log: typed records of the control
  plane (partitioning, migrations, thread re-allocations, lifecycle,
  faults, retries, sheds) attached to a runtime in one call.
* :mod:`repro.faults` — deterministic fault injection (silo crashes,
  partitions, link degradation, slow silos, directory staleness) and
  the client-side resilience policies (retry, deadlines, admission
  control with load shedding); ``repro faults`` on the CLI.
* :mod:`repro.analysis` — the opt-in runtime race sanitizer and the
  salted-hash iteration-order probe; ``repro sanitize`` on the CLI.
* :mod:`repro.backend` — one actor API, two engines over one runtime
  core (:mod:`repro.actor.core`): the deterministic simulator
  (``ActorRuntime``, the reference) and a real asyncio runtime
  (``AsyncioBackend``: callback turn machines, TCP transport, wall-clock
  timers, supervision); select via ``build_cluster(backend=...)``.

The package ships a ``py.typed`` marker: the inline annotations are the
public typing surface.  The names of layers a simulator run does not use
(``AsyncioBackend``, ``Sanitizer``, ``FaultInjector``/``FaultPlan``, the
event log, pools, ``OfflinePartitioner``, the thread controllers) are
imported on first access (PEP 562); type checkers see every name.

Quickstart::

    from repro import ClusterConfig, ResilienceConfig, RetryPolicy, build_cluster
    cluster = build_cluster(
        ClusterConfig(num_servers=4),
        resilience=ResilienceConfig(call_timeout=0.5,
                                    retry=RetryPolicy(max_attempts=3)),
    )
    runtime = cluster.runtime
    # register actors, drive load, cluster.run(until=...) ...

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from .actor import (
    Actor,
    ActorCrashed,
    ActorError,
    ActorId,
    ActorRef,
    ActorRuntime,
    All,
    Call,
    CallTimeout,
    ClusterConfig,
    RequestShed,
    SerializationModel,
    Sleep,
    Tell,
)
from .backend import BackendError, SupervisionPolicy
from .bench.metrics import (
    HistogramRecorder,
    LatencyRecorder,
    TimeSeries,
    percentile,
)
from .cluster import Cluster, build_cluster
from .core import (
    ActOp,
    ActOpConfig,
    PartitionAgent,
    PartitioningConfig,
    ThreadControllerConfig,
)
from .faults import AdmissionConfig, ResilienceConfig, RetryPolicy
from .seda import Stage, StagedServer, StageEvent, StageStats, StatsWindow
from .sim import Simulator

if TYPE_CHECKING:
    from .analysis.sanitizer import Sanitizer
    from .backend.asyncio_backend import AsyncioBackend
    from .core.partitioning.offline import OfflinePartitioner
    from .core.threads.controller import ModelBasedController, QueueLengthController
    from .core.threads.model import ThreadAllocationProblem
    from .faults.injector import FaultInjector
    from .faults.plan import FaultPlan
    from .obs.events import EventLog
    from .obs.observability import Observability
    from .pools.policy import DpaPolicy, make_policy
    from .pools.router import ActorPool, RouterActor

# What a simulator run never touches loads on first access (the asyncio
# driver, the sanitizer, faults, the event log, pools, the offline
# partitioner, thread allocation); everything above is eager.
__getattr__ = lazy_exports(__name__, {
    ".analysis.sanitizer": ("Sanitizer",),
    ".backend.asyncio_backend": ("AsyncioBackend",),
    ".core.partitioning.offline": ("OfflinePartitioner",),
    ".core.threads.controller": ("ModelBasedController", "QueueLengthController"),
    ".core.threads.model": ("ThreadAllocationProblem",),
    ".faults.injector": ("FaultInjector",),
    ".faults.plan": ("FaultPlan",),
    ".obs.events": ("EventLog",),
    ".obs.observability": ("Observability",),
    ".pools.policy": ("DpaPolicy", "make_policy"),
    ".pools.router": ("ActorPool", "RouterActor"),
})

__version__ = "1.0.0"

__all__ = [
    "ActOp",
    "ActOpConfig",
    "Actor",
    "ActorCrashed",
    "ActorError",
    "ActorId",
    "ActorRef",
    "ActorPool",
    "ActorRuntime",
    "AdmissionConfig",
    "All",
    "AsyncioBackend",
    "BackendError",
    "Call",
    "CallTimeout",
    "Cluster",
    "ClusterConfig",
    "DpaPolicy",
    "EventLog",
    "FaultInjector",
    "FaultPlan",
    "HistogramRecorder",
    "LatencyRecorder",
    "ModelBasedController",
    "Observability",
    "OfflinePartitioner",
    "PartitionAgent",
    "PartitioningConfig",
    "QueueLengthController",
    "RequestShed",
    "ResilienceConfig",
    "RetryPolicy",
    "RouterActor",
    "Sanitizer",
    "SerializationModel",
    "Simulator",
    "Sleep",
    "Stage",
    "StageEvent",
    "StageStats",
    "StagedServer",
    "StatsWindow",
    "SupervisionPolicy",
    "Tell",
    "ThreadAllocationProblem",
    "ThreadControllerConfig",
    "TimeSeries",
    "build_cluster",
    "make_policy",
    "percentile",
    "__version__",
]
