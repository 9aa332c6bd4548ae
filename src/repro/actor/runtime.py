"""The cluster runtime: silos, directory, placement, client traffic.

This is the public entry point of the actor substrate — the piece that
plays Orleans' role in the reproduction.  It owns the simulator, the
network, the placement directory, per-silo SEDA servers, and the
persisted actor state store, and it exposes the measurement points the
paper reports: end-to-end client latency, actor-to-actor call latency,
remote/local message counters, migrations, and per-server CPU.

Client-side resilience (retry with backoff, end-to-end deadlines,
bounded admission with load shedding) is configured through a
:class:`~repro.faults.resilience.ResilienceConfig`; a runtime built with
``resilience=None`` takes a fast path whose event sequence is
bit-identical to a build without the resilience layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Type

from ..bench.metrics import HistogramRecorder, LatencyRecorder
from ..faults.resilience import ResilienceConfig
from ..obs.events import RetryEvent, ShedEvent, SiloScaleEvent
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry
from .actor import Actor
from .directory import Directory
from .errors import CallTimeout, RequestShed
from .ids import ActorId, ActorRef
from .messages import Message, MessageKind, next_call_id
from .placement import PlacementPolicy, RandomPlacement
from .serialization import SerializationModel
from .server import Silo

__all__ = ["ClusterConfig", "ActorRuntime"]

_MISSING = object()  # sentinel: call id not in flight (late / duplicate)


@dataclass
class ClusterConfig:
    """Cluster-wide knobs (defaults mirror the paper's testbed).

    Attributes:
        num_servers: silo count (the paper's cluster has 10).
        processors: cores per silo (8).
        switch_factor: per-excess-thread compute inflation.
        dispatch_overhead: fixed per-burst context-switch cost.
        initial_threads: threads per stage at boot; ``None`` uses the
            Orleans default of one thread per stage per core (§3).
        serialization: RPC/LPC cost model.
        network_latency / network_jitter: wire model.
        resume_compute: CPU cost of resuming a suspended turn.
        client_response_size: bytes of a client-bound response.
        location_cache_capacity: per-silo hint cache size.
        time_scale: multiply every simulated duration (costs, network,
            waits) by this factor; drive the workload at rate/time_scale
            and the system sits at the *same* utilization with the same
            latency shape while simulating time_scale-fold fewer events.
            Benches report latencies divided back by time_scale.
        seed: root seed for every RNG substream.
    """

    num_servers: int = 10
    processors: int = 8
    switch_factor: float = 0.05
    dispatch_overhead: float = 2e-6
    initial_threads: Optional[int] = None
    serialization: SerializationModel = field(default_factory=SerializationModel)
    network_latency: float = 0.0005
    network_jitter: float = 0.1
    resume_compute: float = 5e-6
    client_response_size: int = 256
    location_cache_capacity: int = 100_000
    time_scale: float = 1.0
    idle_collection_age: Optional[float] = None
    idle_collection_period: float = 30.0
    seed: int = 0


class _ClientRequest:
    """In-flight bookkeeping for one resilient client request.

    One instance spans every dispatch attempt; per-attempt artifacts
    (call id, timer, trace context) are re-created by
    :meth:`ActorRuntime._dispatch_attempt`.
    """

    __slots__ = ("ref", "method", "args", "size", "response_size",
                 "on_complete", "idempotent", "t0", "deadline_at",
                 "attempts", "call_id", "admitted", "backoff_timer")

    def __init__(self, ref: ActorRef, method: str, args: tuple, size: int,
                 response_size: int, on_complete, idempotent: bool,
                 t0: float, deadline_at: Optional[float]):
        self.ref = ref
        self.method = method
        self.args = args
        self.size = size
        self.response_size = response_size
        self.on_complete = on_complete
        self.idempotent = idempotent
        self.t0 = t0
        self.deadline_at = deadline_at
        self.attempts = 0
        self.call_id = -1
        self.admitted = False
        self.backoff_timer = None


class ActorRuntime:
    """An Orleans-like cluster over the discrete-event simulator."""

    # Armed race sanitizer (repro.analysis.sanitizer), or None.
    _san = None

    def __init__(self, config: Optional[ClusterConfig] = None,
                 sim: Optional[Simulator] = None,
                 resilience: Optional[ResilienceConfig] = None):
        self.config = config or ClusterConfig()
        if self.config.num_servers < 1:
            raise ValueError("need at least one server")
        self.sim = sim or Simulator()
        self.rng = RngRegistry(self.config.seed)
        ts = self.config.time_scale
        if ts <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = ts
        self.serialization = self.config.serialization.scaled(ts)
        self.resume_compute = self.config.resume_compute * ts

        self.resilience = resilience
        self.retry_policy = resilience.retry if resilience else None
        self.admission = resilience.admission if resilience else None
        self.call_timeout = (
            resilience.call_timeout * ts
            if resilience is not None and resilience.call_timeout is not None
            else None
        )
        self.request_deadline = (
            resilience.request_deadline * ts
            if resilience is not None and resilience.request_deadline is not None
            else None
        )
        self.max_receiver_queue = (
            self.admission.receiver_queue if self.admission is not None else None
        )

        self.network = Network(
            self.sim,
            self.rng,
            base_latency=self.config.network_latency * ts,
            jitter=self.config.network_jitter,
        )
        self.directory = Directory(self.config.num_servers)
        self.placement: PlacementPolicy = RandomPlacement(self.rng)
        self.actor_types: dict[str, Type[Actor]] = {}
        self.storage: dict[ActorId, dict[str, Any]] = {}
        # Tombstones for actors deactivated with discard_state=True: the
        # placement fast path must still treat them as "existed before"
        # (§4.3 re-places at the calling server) even though their state
        # was dropped, or discarding would perturb seeded placement RNG
        # draws.  Membership-only — never iterated.
        self.discarded: set[ActorId] = set()
        # Observability attachment point (set by repro.obs.Observability).
        # None means fully uninstrumented: every tracing branch below is
        # one attribute load + comparison.
        self.obs = None
        self._client_traces: dict[int, Any] = {}
        self.silos = [Silo(self, i) for i in range(self.config.num_servers)]
        self._gateway_rng = self.rng.stream("client.gateway")
        self._retry_rng = None  # lazily created "resilience.retry" stream
        if self.admission is not None and self.admission.stage_soft_limit:
            for silo in self.silos:
                for stage in silo.server.stages.values():
                    stage.soft_limit = self.admission.stage_soft_limit
        if self.config.idle_collection_age is not None:
            self.sim.schedule(self.config.idle_collection_period,
                              self._idle_collection_tick)

        # Cluster-wide measurements.  The reservoir recorder is the exact
        # (sorted) reference; the streaming histogram answers windowed
        # percentile queries in O(buckets) for the samplers.
        self.client_latency = LatencyRecorder(reservoir=200_000)
        self.call_latency = LatencyRecorder(reservoir=200_000)
        self.client_latency_hist = HistogramRecorder()
        self.msgs_local = 0
        self.msgs_remote = 0
        self.migrations_total = 0
        self.rejected_requests = 0
        self.requests_completed = 0
        self.requests_timed_out = 0
        self.requests_shed = 0
        self.request_retries = 0
        self.late_responses = 0
        self.failovers = 0
        self.silos_added = 0
        self.silos_drained = 0
        self._client_hooks: dict[int, Callable[[float, Any], None]] = {}
        self._client_timers: dict[int, Any] = {}
        # call_id -> _ClientRequest (resilient) or None (fast path).
        # Responses whose call id is absent are late or duplicated and
        # get discarded (counted in late_responses), never double-completed.
        self._inflight: dict[int, Optional[_ClientRequest]] = {}
        # Admission window: insertion-ordered, so drop_oldest is O(1).
        self._admitted: dict[_ClientRequest, None] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        return self.config.num_servers

    def register_actor(self, actor_type: str, cls: Type[Actor]) -> None:
        """Register an application actor class under a type name."""
        if not issubclass(cls, Actor):
            raise TypeError(f"{cls!r} is not an Actor subclass")
        if actor_type in self.actor_types:
            raise ValueError(f"actor type {actor_type!r} already registered")
        self.actor_types[actor_type] = cls

    def set_placement(self, policy: PlacementPolicy) -> None:
        self.placement = policy

    def ref(self, actor_type: str, key: Hashable) -> ActorRef:
        if actor_type not in self.actor_types:
            raise KeyError(f"unknown actor type {actor_type!r}")
        return ActorRef(actor_type, key)

    # ------------------------------------------------------------------
    # Activation management (silos call back into these)
    # ------------------------------------------------------------------
    def activate(self, actor_id: ActorId, server: int) -> None:
        self.directory.register(actor_id, server)
        self.silos[server].host(actor_id)

    def locate(self, actor_id: ActorId) -> Optional[int]:
        return self.directory.lookup(actor_id)

    def _idle_collection_tick(self) -> None:
        """Orleans-style activation GC: silos drop long-idle actors."""
        age = self.config.idle_collection_age
        assert age is not None
        for silo in self.silos:
            silo.collect_idle(age)
        self.sim.schedule(self.config.idle_collection_period,
                          self._idle_collection_tick)

    def deactivate(self, actor_id: ActorId, discard_state: bool = False) -> bool:
        """Idle-collect an actor wherever it lives (no placement hint).

        With ``discard_state`` the actor's persisted state is dropped
        instead of captured — for actors whose lifecycle is over (a
        departed player, a dissolved game), keeping storage from growing
        monotonically with churn.  A tombstone preserves the placement
        branch the stored state would have selected.
        """
        location = self.directory.lookup(actor_id)
        if location is None:
            return False
        return self.silos[location].deactivate(actor_id, discard_state=discard_state)

    # ------------------------------------------------------------------
    # Failure injection (§2's fault-tolerance contract)
    # ------------------------------------------------------------------
    def fail_silo(self, server: int) -> None:
        """Crash one silo (volatile state lost; directory entries dropped)."""
        self.silos[server].fail()

    def restart_silo(self, server: int) -> None:
        self.silos[server].restart()

    def pick_live_server(self, preferred: Optional[int] = None) -> int:
        """A live, non-draining server, preferring the caller's own (used
        when placement lands on a dead or draining silo)."""
        if preferred is not None:
            silo = self.silos[preferred]
            if not (silo.dead or silo.draining):
                return preferred
        live = [s.server_id for s in self.silos if not (s.dead or s.draining)]
        if not live:
            raise RuntimeError("every silo in the cluster has failed")
        return live[self._gateway_rng.randrange(len(live))]

    def census(self) -> dict[int, int]:
        return self.directory.census()

    # ------------------------------------------------------------------
    # Elastic membership (repro.autoscale; also reachable from fault
    # plans via AddSilo / DrainSilo — one action vocabulary)
    # ------------------------------------------------------------------
    @property
    def active_servers(self) -> int:
        """Silos currently accepting placement (live and not draining)."""
        return sum(1 for s in self.silos if not (s.dead or s.draining))

    def add_silo(self, server: Optional[int] = None) -> Optional[int]:
        """Bring a parked or crashed silo back into service.

        ``server=None`` picks the lowest-numbered dead silo.  Returns the
        server id, or None when there is no parked capacity (or the named
        silo is already live).  Capacity is fixed at construction
        (``ClusterConfig.num_servers`` is the fleet ceiling); elasticity
        is membership, not allocation — the Orleans model, where a silo
        process joins or leaves a pre-provisioned cluster.
        """
        if server is None:
            for silo in self.silos:
                if silo.dead:
                    server = silo.server_id
                    break
            else:
                return None
        silo = self.silos[server]
        if not silo.dead:
            return None
        silo.restart()
        self.silos_added += 1
        obs = self.obs
        if obs is not None:
            obs.events.emit(SiloScaleEvent(
                self.sim.now, server=server, action="add"))
        return server

    def drain_silo(self, server: int, poll: float = 0.25,
                   on_complete: Optional[Callable[[int], None]] = None) -> bool:
        """Gracefully remove one silo: the §4.3 migration path in bulk.

        The silo immediately stops being a placement/gateway target (the
        admission edge of the PR-3 shedding path: no *new* work is let
        in), every hosted activation starts an opportunistic migration to
        the remaining live silos (round-robin over server ids — the ActOp
        rebalance kick that follows repairs locality), and a poll loop
        decommissions the silo once it is empty and idle.  Returns False
        if the silo is already dead or draining; ``on_complete(server)``
        fires at decommission time.
        """
        silo = self.silos[server]
        if silo.dead or silo.draining:
            return False
        recipients = [s.server_id for s in self.silos
                      if not (s.dead or s.draining) and s.server_id != server]
        if not recipients:
            raise RuntimeError("cannot drain the last live silo")
        silo.draining = True
        obs = self.obs
        if obs is not None:
            obs.events.emit(SiloScaleEvent(
                self.sim.now, server=server, action="drain_begin",
                activations=len(silo.activations)))
        self._migrate_off(silo, recipients)
        self.sim.schedule(poll, self._drain_poll, server, poll, on_complete)
        return True

    def _migrate_off(self, silo: Silo, recipients: list[int]) -> None:
        for i, actor_id in enumerate(list(silo.activations)):
            activation = silo.activations.get(actor_id)
            if activation is not None and not activation.deactivating:
                silo.migrate(actor_id, recipients[i % len(recipients)])

    def _drain_poll(self, server: int, poll: float,
                    on_complete: Optional[Callable[[int], None]]) -> None:
        silo = self.silos[server]
        if silo.dead:
            # Crashed (or already decommissioned) mid-drain: the silo is
            # out of service either way, so the drain is complete.
            if on_complete is not None:
                on_complete(server)
            return
        if not silo.quiesced:
            recipients = [s.server_id for s in self.silos
                          if not (s.dead or s.draining)]
            if recipients:
                # Re-kick stragglers: an activation can outlive the first
                # sweep (e.g. it was mid-call-chain and a racing message
                # re-drove it), and plain deactivations need a hint too.
                self._migrate_off(silo, recipients)
            self.sim.schedule(poll, self._drain_poll, server, poll, on_complete)
            return
        silo.decommission()
        self.silos_drained += 1
        obs = self.obs
        if obs is not None:
            obs.events.emit(SiloScaleEvent(
                self.sim.now, server=server, action="drain_done"))
        if on_complete is not None:
            on_complete(server)

    # ------------------------------------------------------------------
    # Client traffic
    # ------------------------------------------------------------------
    def client_request(
        self,
        ref: ActorRef,
        method: str,
        *args: Any,
        size: int = 256,
        response_size: int = 256,
        on_complete: Optional[Callable[[float, Any], None]] = None,
        idempotent: bool = True,
    ) -> None:
        """Issue one external client request toward an actor.

        Latency (request creation to response delivery at the client) is
        recorded in :attr:`client_latency`; ``on_complete(latency,
        result)`` fires as well if given — with an
        :class:`~repro.actor.errors.ActorError` result on timeout or
        shed.  ``idempotent=False`` marks the request unsafe to
        re-dispatch; the retry policy honours it.
        """
        if self.resilience is None:
            # Fast path: bit-identical to a runtime without the
            # resilience layer (same calls, same order, no extra draws).
            gateway = self.silos[self.pick_live_server(
                self._gateway_rng.randrange(self.num_servers))]
            destination = gateway._resolve_or_place(ref.id)
            call_id = next_call_id()
            obs = self.obs
            ctx = (obs.tracer.begin_request(f"{ref.id}.{method}")
                   if obs is not None else None)
            message = Message(
                kind=MessageKind.CLIENT_REQUEST,
                target=ref.id,
                method=method,
                args=args,
                size=size,
                call_id=call_id,
                created_at=self.sim.now,
                response_size=response_size,
                trace=ctx,
            )
            self._inflight[call_id] = None
            if ctx is not None:
                self._client_traces[call_id] = ctx
            if on_complete is not None:
                self._client_hooks[call_id] = on_complete
            latency = self.network.deliver(
                size, self.silos[destination].deliver, message,
                dst=destination)
            if ctx is not None:
                obs.tracer.network_hop(ctx, None, destination, size, latency)
            return

        now = self.sim.now
        deadline_at = (now + self.request_deadline
                       if self.request_deadline is not None else None)
        state = _ClientRequest(ref, method, args, size, response_size,
                               on_complete, idempotent, now, deadline_at)
        if not self._admit(state):
            return
        self._dispatch_attempt(state)

    def _dispatch_attempt(self, state: _ClientRequest) -> None:
        """One dispatch of a resilient request (first try or retry)."""
        state.attempts += 1
        gateway = self.silos[self.pick_live_server(
            self._gateway_rng.randrange(self.num_servers))]
        destination = gateway._resolve_or_place(state.ref.id)
        call_id = next_call_id()
        state.call_id = call_id
        self._inflight[call_id] = state
        obs = self.obs
        ctx = (obs.tracer.begin_request(f"{state.ref.id}.{state.method}")
               if obs is not None else None)
        message = Message(
            kind=MessageKind.CLIENT_REQUEST,
            target=state.ref.id,
            method=state.method,
            args=state.args,
            size=state.size,
            call_id=call_id,
            created_at=self.sim.now,
            response_size=state.response_size,
            trace=ctx,
        )
        if ctx is not None:
            self._client_traces[call_id] = ctx
        if state.on_complete is not None:
            self._client_hooks[call_id] = state.on_complete
        timeout = self.call_timeout
        if state.deadline_at is not None:
            remaining = max(state.deadline_at - self.sim.now, 0.0)
            timeout = remaining if timeout is None else min(timeout, remaining)
        if timeout is not None:
            self._client_timers[call_id] = self.sim.schedule(
                timeout, self._client_request_timed_out,
                call_id, state.ref.id, state.method,
            )
        latency = self.network.deliver(
            state.size, self.silos[destination].deliver, message,
            dst=destination)
        if ctx is not None:
            obs.tracer.network_hop(ctx, None, destination, state.size, latency)

    def complete_client_request(self, response: Message) -> None:
        """Called when a client response leaves the cluster (post-network)."""
        state = self._inflight.pop(response.call_id, _MISSING)
        if state is _MISSING:
            # Late (the request already timed out / was shed) or a
            # network-duplicated delivery: discard, never double-complete.
            self.late_responses += 1
            return
        timer = self._client_timers.pop(response.call_id, None)
        if timer is not None:
            timer.cancel()
        ctx = self._client_traces.pop(response.call_id, None)
        if ctx is not None and self.obs is not None:
            self.obs.tracer.end_request(ctx)
        if state is None:
            latency = self.sim.now - response.created_at
        else:
            # Retried requests measure from first issue, not last attempt.
            latency = self.sim.now - state.t0
            self._release(state)
        self.client_latency.record(latency)
        self.client_latency_hist.record(latency)
        self.requests_completed += 1
        hook = self._client_hooks.pop(response.call_id, None)
        if hook is not None:
            hook(latency, response.result)

    def _client_request_timed_out(self, call_id: int, target, method: str) -> None:
        state = self._inflight.pop(call_id, _MISSING)
        if state is _MISSING:
            return  # already resolved; stale timer
        self._client_timers.pop(call_id, None)
        ctx = self._client_traces.pop(call_id, None)
        if state is not None and self._should_retry(state):
            # This attempt is dead (its late response, if any, will be
            # discarded via _inflight); the request lives on.
            if ctx is not None and self.obs is not None:
                self.obs.tracer.end_request(ctx, error="timeout")
            self._client_hooks.pop(call_id, None)
            backoff = self.retry_policy.delay_for(
                state.attempts, self._retry_stream()) * self.time_scale
            if state.deadline_at is not None:
                backoff = min(backoff, max(state.deadline_at - self.sim.now,
                                           0.0))
            self.request_retries += 1
            obs = self.obs
            if obs is not None:
                obs.events.emit(RetryEvent(
                    self.sim.now, target=str(target), method=method,
                    attempt=state.attempts, backoff=backoff))
            state.backoff_timer = self.sim.schedule(
                backoff, self._retry_attempt, state)
            return
        if ctx is not None and self.obs is not None:
            self.obs.tracer.end_request(ctx, error="timeout")
        self.requests_timed_out += 1
        if state is not None:
            self._release(state)
        hook = self._client_hooks.pop(call_id, None)
        if hook is not None:
            hook(
                self.call_timeout or 0.0,
                CallTimeout(target, method,
                            (self.call_timeout or 0.0) / self.time_scale),
            )

    def _should_retry(self, state: _ClientRequest) -> bool:
        policy = self.retry_policy
        if policy is None or state.attempts >= policy.max_attempts:
            return False
        if policy.idempotent_only and not state.idempotent:
            return False
        if state.deadline_at is not None and self.sim.now >= state.deadline_at:
            return False
        return True

    def _retry_attempt(self, state: _ClientRequest) -> None:
        state.backoff_timer = None
        self._dispatch_attempt(state)

    def _retry_stream(self):
        if self._retry_rng is None:
            self._retry_rng = self.rng.stream("resilience.retry")
        return self._retry_rng

    # ------------------------------------------------------------------
    # Admission control (graceful degradation under overload)
    # ------------------------------------------------------------------
    def _admit(self, state: _ClientRequest) -> bool:
        admission = self.admission
        if admission is None or admission.capacity is None:
            return True
        if len(self._admitted) < admission.capacity:
            self._admitted[state] = None
            state.admitted = True
            return True
        if admission.policy == "reject":
            self._shed(state, "reject", victim_age=0.0)
            return False
        # drop_oldest: abandon the stalest *non-in-flight* request — one
        # parked in retry backoff, whose server-side work is already lost.
        # Evicting dispatched work is the classic drop-oldest livelock
        # (benchmarks/test_overload_shedding.py): under a sustained ramp
        # every admitted request is evicted before it can complete, so
        # goodput collapses to zero while the server stays busy.  When
        # every admitted request is in flight, shedding the new arrival
        # is the only progress-preserving choice.
        victim = next(
            (r for r in self._admitted if r.backoff_timer is not None), None
        )
        if victim is None:
            self._shed(state, "drop_oldest", victim_age=0.0)
            return False
        self._abandon(victim)
        self._admitted[state] = None
        state.admitted = True
        return True

    def _abandon(self, victim: _ClientRequest) -> None:
        """Evict a request from the admission window."""
        del self._admitted[victim]
        victim.admitted = False
        if victim.backoff_timer is not None:
            victim.backoff_timer.cancel()
            victim.backoff_timer = None
        else:
            # Evicting dispatched work: _admit never takes this path any
            # more, but the sanitizer keeps watching it so a regression
            # (or a direct caller) is flagged with the livelock citation.
            san = self._san
            if san is not None:
                san.record_inflight_eviction(
                    victim.ref.id, self.sim.now - victim.t0)
            self._inflight.pop(victim.call_id, None)
            timer = self._client_timers.pop(victim.call_id, None)
            if timer is not None:
                timer.cancel()
        ctx = self._client_traces.pop(victim.call_id, None)
        if ctx is not None and self.obs is not None:
            self.obs.tracer.end_request(ctx, error="shed")
        self._client_hooks.pop(victim.call_id, None)
        self._shed(victim, "drop_oldest",
                   victim_age=self.sim.now - victim.t0)

    def _shed(self, state: _ClientRequest, policy: str,
              victim_age: float) -> None:
        self.requests_shed += 1
        obs = self.obs
        if obs is not None:
            obs.events.emit(ShedEvent(
                self.sim.now, target=str(state.ref.id), method=state.method,
                policy=policy, victim_age=victim_age))
        if state.on_complete is not None:
            state.on_complete(
                victim_age,
                RequestShed(state.ref.id, state.method, policy))

    def _release(self, state: _ClientRequest) -> None:
        if state.admitted:
            self._admitted.pop(state, None)
            state.admitted = False

    @property
    def inflight_requests(self) -> int:
        """Client requests currently between issue and outcome."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # Measurement hooks
    # ------------------------------------------------------------------
    def record_call_latency(self, latency: float) -> None:
        self.call_latency.record(latency)

    def reset_latency_stats(self) -> None:
        """Discard warmup samples (benches call this at steady state)."""
        self.client_latency = LatencyRecorder(reservoir=200_000)
        self.call_latency = LatencyRecorder(reservoir=200_000)
        self.client_latency_hist = HistogramRecorder()

    def record_migration(self) -> None:
        self.migrations_total += 1

    def remote_message_fraction(self) -> float:
        """Lifetime share of actor-to-actor messages that crossed silos."""
        total = self.msgs_local + self.msgs_remote
        return self.msgs_remote / total if total else 0.0

    def mean_cpu_utilization(self, busy_before: list[float], time_before: float) -> float:
        """Cluster-mean CPU utilization since a snapshot (see silo pools)."""
        utils = [
            silo.server.cpu.utilization(before, time_before)
            for silo, before in zip(self.silos, busy_before)
        ]
        return sum(utils) / len(utils)

    def cpu_busy_snapshot(self) -> list[float]:
        return [silo.server.cpu.busy_time for silo in self.silos]

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ActorRuntime(servers={self.num_servers}, "
            f"actors={len(self.directory)}, t={self.sim.now:.3f})"
        )
