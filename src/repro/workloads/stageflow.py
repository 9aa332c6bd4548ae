"""Stageflow: an inference-pipeline workload over data-parallel pools.

Each request flows **route → enrich → transform** — the shape of a
modern interactive inference service (request routing, feature/context
enrichment, model transform), and a deliberately different stress on the
runtime than Halo Presence's fan-out: heterogeneous per-stage compute, a
bimodal heavy/light request mix, and pool-based rather than per-entity
actors.  Every stage is a :class:`~repro.pools.ActorPool` (a router
actor fronting N worker replicas), and a small set of pipeline actors
chains the stages with ordinary actor calls, so the whole service runs
inside the Orleans contract the paper's §2 lays out.  Requests arrive
as a Poisson process at ``base_rate`` (or are issued back to back by
:meth:`StageflowWorkload.drive`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..actor.actor import Actor
from ..actor.calls import Call
from ..actor.errors import ActorError
from ..bench.metrics import LatencyRecorder
from ..pools import ActorPool

__all__ = ["StageSpec", "StageflowConfig", "StageWorkerActor",
           "PipelineActor", "StageflowWorkload"]


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a pooled worker type with its compute costs.

    ``compute`` is the per-request on-CPU cost of the light path;
    ``heavy_compute`` the heavy path (``None`` = same as light).
    ``replicas`` sizes the pool.
    """

    name: str
    compute: float
    heavy_compute: Optional[float] = None
    replicas: int = 4

    def __post_init__(self) -> None:
        if self.compute <= 0:
            raise ValueError(f"stage {self.name!r}: compute must be > 0")
        if self.heavy_compute is not None and self.heavy_compute <= 0:
            raise ValueError(f"stage {self.name!r}: heavy_compute must be > 0")
        if self.replicas < 1:
            raise ValueError(f"stage {self.name!r}: replicas must be >= 1")


# The pipeline, in call order.  Heterogeneous by design: a cheap router
# stage, a dominant enrichment stage with an 6.7x heavy tail, and a
# mid-weight transform.
STAGES: tuple[StageSpec, ...] = (
    StageSpec("route", compute=200e-6, replicas=4),
    StageSpec("enrich", compute=1.2e-3, heavy_compute=8e-3, replicas=8),
    StageSpec("transform", compute=600e-6, replicas=6),
)
PIPELINES = 4            # pipeline-driver actors; requests round-robin
# Router shards per stage pool: one dispatcher per silo is the DPA
# shape; a single shard serializes a pool's whole throughput through one
# activation.
ROUTER_SHARDS = 4
REQUEST_SIZE = 512       # bytes of a client request


@dataclass(frozen=True)
class StageflowConfig:
    """Workload shape knobs.  The pipeline (:data:`STAGES`), the number of
    pipeline drivers, router shards and request size are the module's
    constants.

    Attributes:
        policy: balancing policy name for every stage pool
            (``round_robin`` / ``least_outstanding`` / ``dpa``).
        base_rate: Poisson arrival rate (requests/second).
        heavy_fraction: probability a request takes the heavy path.
        report_period: load-report period fed to each pool's routers
            (None disables the report loop).
    """

    policy: str = "dpa"
    base_rate: float = 300.0
    heavy_fraction: float = 0.1
    report_period: Optional[float] = 0.1

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if not 0.0 <= self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must be in [0, 1]")


class StageWorkerActor(Actor):
    """A stateless(ish) pooled worker: burns the stage's compute and
    passes the payload on.  Subclassed per stage via :func:`stage_worker`
    so each stage carries its own COMPUTE table."""

    def __init__(self) -> None:
        super().__init__()
        self.handled = 0
        self.handled_heavy = 0

    def handle(self, payload):
        self.handled += 1
        return payload

    def handle_heavy(self, payload):
        self.handled_heavy += 1
        return payload


def stage_worker(spec: StageSpec) -> type:
    """Build the per-stage worker class (stage costs live in COMPUTE,
    charged by the silo's turn executor)."""
    heavy = spec.heavy_compute if spec.heavy_compute is not None else spec.compute
    return type(f"StageWorker_{spec.name}", (StageWorkerActor,),
                {"COMPUTE": {"handle": spec.compute, "handle_heavy": heavy}})


class PipelineActor(Actor):
    """Chains the stage pools: one ``process`` turn routes the payload
    through every stage router in order, choosing the heavy or light
    worker method per request kind."""

    COMPUTE = {"process": 30e-6}

    def __init__(self) -> None:
        super().__init__()
        self.routers: list = []   # ActorRefs, installed by the workload
        self.processed = 0

    def process(self, kind: str, payload):
        """Replay-safe: the stages are stateless transforms (their
        counters are liveness signals, never exact counts), so a retried
        request re-running the chain converges on the same result."""
        if not self.routers:
            raise ActorError(f"pipeline {self.id} has no stages wired")
        method = "handle_heavy" if kind == "heavy" else "handle"
        for router in self.routers:
            payload = yield Call(router, "route", payload, method)
        self.processed += 1
        return payload


class StageflowWorkload:
    """Drives the route→enrich→transform pipeline against a cluster."""

    PIPELINE = "stageflow.pipeline"

    def __init__(self, runtime, config: Optional[StageflowConfig] = None):
        self.runtime = runtime
        self.config = config or StageflowConfig()
        cfg = self.config
        self.pools: list[ActorPool] = []
        for spec in STAGES:
            self.pools.append(ActorPool(
                runtime, spec.name, stage_worker(spec),
                replicas=spec.replicas, policy=cfg.policy,
                shards=ROUTER_SHARDS, report_period=cfg.report_period))
        runtime.register_actor(self.PIPELINE, PipelineActor)
        self._arrival_rng = runtime.rng.stream("stageflow.arrivals")
        self._kind_rng = runtime.rng.stream("stageflow.kinds")
        self.latency = LatencyRecorder(reservoir=200_000)
        self.heavy_latency = LatencyRecorder(reservoir=50_000)
        self.issued = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    def start(self, arrivals: bool = True) -> "StageflowWorkload":
        """Install the pools and pipeline actors; with ``arrivals`` (the
        default) also start the Poisson arrival loop.  Pass
        ``arrivals=False`` to drive a fixed request count via
        :meth:`drive` instead — the cross-backend parity tests' mode."""
        rt = self.runtime
        for pool in self.pools:
            pool.start()
        # Install pipeline actors directly (the Halo direct-bootstrap
        # idiom): place, activate, wire the router refs as state.  Each
        # pipeline sticks to one router shard per stage (stable key), so
        # shard in-flight bookkeeping sees a consistent traffic slice.
        for i in range(PIPELINES):
            ref = rt.ref(self.PIPELINE, i)
            dest = rt.pick_live_server(
                preferred=rt.placement.choose(ref, 0, rt.num_servers))
            rt.activate(ref, dest)
            instance = rt.silos[dest].activations[ref].instance
            instance.routers = [pool.shard_ref(i) for pool in self.pools]
        if arrivals:
            self._schedule_arrival()
        return self

    # ------------------------------------------------------------------
    def _schedule_arrival(self) -> None:
        gap = self._arrival_rng.expovariate(self.config.base_rate)
        self.runtime.sim.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        self._issue_one()
        self._schedule_arrival()

    def _issue_one(self) -> None:
        """Issue one pipeline request (kind draw, then issue — the draw
        order the digest pins depend on)."""
        cfg = self.config
        kind = ("heavy" if self._kind_rng.random() < cfg.heavy_fraction
                else "light")
        seq = self.issued
        self.issued += 1
        ref = self.runtime.ref(self.PIPELINE, seq % PIPELINES)
        self.runtime.client_request(
            ref, "process", kind, seq, size=REQUEST_SIZE,
            on_complete=lambda latency, result, _kind=kind:
                self._on_complete(latency, result, _kind))

    def drive(self, count: int) -> None:
        """Issue exactly ``count`` requests back-to-back (no arrival
        gaps, no RNG draws from the arrival stream).  Backend-neutral:
        identical kind/sequence draws on the simulator and the asyncio
        runtime, which is what makes logical cross-backend parity
        assertable."""
        for _ in range(count):
            self._issue_one()

    def _on_complete(self, latency: float, result, kind: str) -> None:
        if isinstance(result, ActorError):
            self.failed += 1
            return
        self.completed += 1
        self.latency.record(latency)
        if kind == "heavy":
            self.heavy_latency.record(latency)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "latency_mean_ms": round(self.latency.mean * 1e3, 3),
            "latency_p99_ms": round(self.latency.percentile(99.0) * 1e3, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StageflowWorkload(policy={self.config.policy!r}, "
                f"issued={self.issued}, completed={self.completed})")
