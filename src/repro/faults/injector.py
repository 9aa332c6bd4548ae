"""The fault injector: turns a :class:`FaultPlan` into scheduled chaos.

``FaultInjector(runtime, plan).start()`` schedules every action of the
plan on the runtime's clock — simulated seconds on the simulator, wall
seconds on the asyncio runtime (times relative to the instant
``start()`` runs).  One injector drives both engines: crash, restart
and directory staleness go through the runtime core's verbs;
the modeled-network and modeled-CPU actions exist on the simulator only
and ``build_cluster`` rejects them for ``backend="asyncio"`` at build
time.  Windowed actions (partitions, degradations, slow silos) get a
begin and an end event; instantaneous ones (crash, restart, staleness)
fire once.

Determinism & neutrality
------------------------
All randomness (probabilistic drops/duplicates, staleness sampling)
comes from dedicated named substreams (``faults.network``,
``faults.staleness``) created lazily, so a plan without probabilistic
actions draws nothing.  An **empty plan schedules nothing and installs
nothing** — the run is bit-identical to one that never imported this
module (asserted by ``tests/integration/test_faults.py``).

Network faults are applied through :class:`LinkFaultModel`, installed on
``Network.faults`` only when the plan contains network actions.  The
model's pass-through path performs exactly the operations of the plain
delivery path, so an installed-but-idle model changes nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.events import FaultInjectionEvent
from .plan import (
    DirectoryStaleness,
    FaultPlan,
    LinkDegradation,
    NetworkPartition,
    SiloCrash,
    SiloRestart,
    SlowSilo,
)

__all__ = ["FaultInjector", "LinkFaultModel"]


class LinkFaultModel:
    """Active partitions + degradations applied at message-transmit time.

    Installed on :attr:`repro.sim.network.Network.faults` by the
    injector; the network delegates :meth:`transmit` for every message
    while installed.
    """

    def __init__(self, network, rng_registry):
        self.network = network
        self._rng_registry = rng_registry
        self._rng = None  # lazily created: idle models must not touch RNG
        self._partitions: list[NetworkPartition] = []
        self._degradations: list[LinkDegradation] = []
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0

    # ------------------------------------------------------------------
    def add(self, action) -> None:
        if isinstance(action, NetworkPartition):
            self._partitions.append(action)
        else:
            self._degradations.append(action)

    def remove(self, action) -> None:
        if isinstance(action, NetworkPartition):
            self._partitions.remove(action)
        else:
            self._degradations.remove(action)

    @property
    def idle(self) -> bool:
        return not (self._partitions or self._degradations)

    def _random(self) -> float:
        if self._rng is None:
            self._rng = self._rng_registry.stream("faults.network")
        return self._rng.random()

    # ------------------------------------------------------------------
    def transmit(self, size_bytes: int, callback: Callable[..., Any],
                 args: tuple, src: Optional[int],
                 dst: Optional[int]) -> float:
        """Deliver one message subject to the active faults.

        Returns the transit latency; a dropped message reports the base
        latency.
        """
        network = self.network
        for partition in self._partitions:
            if partition.separates(src, dst):
                self.messages_dropped += 1
                return network.base_latency
        drop = 0.0
        delay = 0.0
        duplicate = 0.0
        for deg in self._degradations:
            if deg.matches(src, dst):
                drop = 1.0 - (1.0 - drop) * (1.0 - deg.drop)
                duplicate = 1.0 - (1.0 - duplicate) * (1.0 - deg.duplicate)
                delay += deg.delay
        if drop > 0.0 and self._random() < drop:
            self.messages_dropped += 1
            return network.base_latency
        latency = network.latency() + delay
        if delay > 0.0:
            self.messages_delayed += 1
        network.sim.defer(latency, callback, *args)
        if duplicate > 0.0 and self._random() < duplicate:
            self.messages_duplicated += 1
            network.sim.defer(network.latency() + delay, callback, *args)
        return latency


class FaultInjector:
    """Schedules a :class:`FaultPlan` against a live runtime."""

    def __init__(self, runtime, plan: Optional[FaultPlan] = None):
        self.runtime = runtime
        self.plan = plan or FaultPlan()
        self.link_faults: Optional[LinkFaultModel] = None
        self.started = False
        self.faults_started = 0
        self.faults_ended = 0
        self.actors_staled = 0

    # ------------------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Arm the plan.  An empty plan schedules and installs nothing."""
        if self.started:
            raise RuntimeError("FaultInjector.start() called twice")
        self.started = True
        if self.plan.empty:
            return self
        runtime = self.runtime
        if self.plan.has_network_faults:
            self.link_faults = LinkFaultModel(runtime.network, runtime.rng)
            runtime.network.faults = self.link_faults
        # Plan times are seconds on the runtime's clock (the same one
        # as ``runtime.run(until=...)`` and the harness warmup/duration),
        # offset from the instant start() runs.
        for action in self.plan.actions:
            runtime.sim.schedule(action.at, self._begin, action)
            until = getattr(action, "until", None)
            if until is not None:
                runtime.sim.schedule(until, self._end, action)
        return self

    # ------------------------------------------------------------------
    def _begin(self, action) -> None:
        self.faults_started += 1
        runtime = self.runtime
        if isinstance(action, SiloCrash):
            runtime.fail_silo(action.server)
        elif isinstance(action, SiloRestart):
            runtime.restart_silo(action.server)
        elif isinstance(action, SlowSilo):
            runtime.silos[action.server].server.cpu.throttle = action.factor
        elif isinstance(action, (NetworkPartition, LinkDegradation)):
            self.link_faults.add(action)
        elif isinstance(action, DirectoryStaleness):
            self._inject_staleness(action)
        self._emit(action, "start")

    def _end(self, action) -> None:
        self.faults_ended += 1
        if isinstance(action, SlowSilo):
            self.runtime.silos[action.server].server.cpu.throttle = 1.0
        elif isinstance(action, (NetworkPartition, LinkDegradation)):
            self.link_faults.remove(action)
        self._emit(action, "end")

    def _inject_staleness(self, action: DirectoryStaleness) -> None:
        """Deactivate sampled actors and plant wrong hints everywhere.

        The directory contract forbids unregistering a still-hosted
        actor, so staleness is modeled as a *graceful* deactivation plus
        cache poisoning: the next call finds no directory entry, follows
        a wrong hint, and the silo there must re-place the actor —
        exactly the §4.3 stale-witness path.
        """
        runtime = self.runtime
        entries = runtime.directory.entries()
        if not entries or runtime.num_servers < 2:
            return
        rng = runtime.rng.stream("faults.staleness")
        count = min(action.count, len(entries))
        for actor_id, location in rng.sample(entries, count):
            silo = runtime.silos[location]
            if silo.dead or actor_id not in silo.activations:
                continue
            wrong = rng.randrange(runtime.num_servers - 1)
            if wrong >= location:
                wrong += 1
            silo.deactivate(actor_id)
            for other in runtime.silos:
                other.location_cache.hint(actor_id, wrong)
            self.actors_staled += 1

    def _emit(self, action, phase: str) -> None:
        obs = self.runtime.obs
        if obs is None:
            return
        detail = {}
        for name in ("server", "factor", "drop", "delay", "duplicate",
                     "count", "src", "dst"):
            value = getattr(action, name, None)
            if value is not None:
                detail[name] = value
        obs.events.emit(FaultInjectionEvent(
            self.runtime.sim.now, fault=type(action).__name__,
            phase=phase, detail=detail))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self.started else "idle"
        return (f"FaultInjector({state}, plan={len(self.plan)} actions, "
                f"started={self.faults_started}, ended={self.faults_ended})")
