"""The runtime core: everything about a cluster that does not depend on
*how* time passes, turns get a processor, or bytes cross a wire.

:class:`ClusterCore` owns the actor registry, the directory, placement,
persisted state and tombstones, and the client-request table —
exactly-once completion, retry, deadline, admission, recorders and
counters.  :class:`SiloCore` owns one server's activations and their
work queues, ``_resolve_or_place`` with
:class:`~repro.actor.directory.LocationCache` hints, route/dispatch with
local/remote counting, the generator interpreter (``Call`` / ``All`` /
``Tell`` / ``Sleep`` over one pending-call table), ``CommTable``
recording, the obs/sanitizer hooks, migration and deactivation on
quiescence, and crash/restart.

Two drivers subclass the pair and supply only the mechanics, as plain
``self.`` methods (no driver object, so the hot path gains no hop):

========================  ==============================================
``SiloCore`` hook         what the driver decides
========================  ==============================================
``_pump``                 give the activation's next eligible work item
                          a processor; call ``_segment_done`` when it
                          has one
``_send_remote``          ship a message to another silo, which takes it
                          in through its own ``deliver``
``_reply_to_client``      get a client-bound response out of the cluster
``_on_down`` / ``_on_up``  release / reopen transport state
``_driver_idle``          nothing queued or in flight below the core
``load``                  host contention, for pool balancing
========================  ==============================================

``ClusterCore`` hooks: ``_ingress`` (a client message enters at a
gateway), ``send_control`` (one control-plane hop) and ``run``.  Timeouts
are no hook: each silo's calls and the cluster's client requests have one
:class:`~repro.actor.timeouts.Deadlines` table on both drivers.  The
simulator driver is :class:`~repro.actor.runtime.ActorRuntime` +
:class:`~repro.actor.server.Silo`; the real one is
:class:`~repro.backend.asyncio_backend.AsyncioBackend` + ``AsyncioSilo``.
The core is free of cost models: it records *what happened* (a local
delivery deep-copied ``n`` bytes) and the simulator prices it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, Optional, Type

from ..bench.metrics import LatencyRecorder
from ..faults.resilience import ResilienceConfig
from ..sim.rng import RngRegistry
from .activation import Activation, WorkItem
from .actor import Actor, is_generator_method
from .calls import All, Call, Sleep, Tell
from .commtable import CommTable
from .timeouts import Deadlines
from .directory import Directory, LocationCache
from .errors import ActorCrashed, ActorError, CallTimeout, RequestShed
from .ids import ActorId, ActorRef
from .messages import Message, MessageKind, next_call_id
from .placement import PlacementPolicy, RandomPlacement

__all__ = ["ClusterCore", "SiloCore"]

CLIENT_RESPONSE_SIZE = 256   # bytes of a response to a client request


class _ClientRequest:
    """In-flight bookkeeping for one client request.

    One instance spans every dispatch attempt; the per-attempt
    ``call_id`` is overwritten by :meth:`ClusterCore._dispatch_attempt`.
    """

    __slots__ = ("ref", "method", "args", "size", "response_size",
                 "on_complete", "idempotent", "t0", "deadline_at",
                 "attempts", "call_id", "backoff_timer")

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
        self.backoff_timer = None


class ClusterCore:
    """A cluster of silos: registry, placement, membership, client edge.

    Also the API both engines present: ``spawn`` / ``send`` /
    ``client_request``, the clock as ``sim``, ``rng`` plus lifecycle.
    A driver's ``__init__`` calls this one with its clock, then builds
    ``self.silos``.
    """

    #: Short identifier (``"sim"`` / ``"asyncio"``) used by CLIs and errors.
    name = "core"
    # The armed race sanitizer (``Sanitizer.arm`` sets it on the class,
    # ``disarm`` clears it): an asyncio silo built meanwhile hooks itself.
    _san = None

    def __init__(self, config, clock,
                 resilience: Optional[ResilienceConfig] = None,
                 supervisor=None):
        self.config = config
        if config.num_servers < 1:
            raise ValueError("need at least one server")
        ts = config.time_scale
        if ts <= 0:
            raise ValueError("time_scale must be positive")
        period = config.idle_collection_period
        if config.idle_collection_age is not None and not (
                period > 0 and math.isfinite(period)):
            # A zero period reschedules the sweep at the same instant
            # forever: simulated time would never advance.
            raise ValueError("idle_collection_period must be positive and "
                             f"finite, got {period!r}")
        self.time_scale = ts
        self.sim = clock
        self.rng = RngRegistry(config.seed)

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
        # The :class:`~repro.backend.supervision.Supervisor` that decides
        # what a crashed turn means; None: it is a bug in the model, raise.
        self.supervisor = supervisor
        self.directory = Directory(config.num_servers)
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
        # None means fully uninstrumented: every event-emitting branch
        # below is one attribute load + comparison.
        self.obs = None
        self.silos: list = []
        self._gateway_rng = self.rng.stream("client.gateway")
        self._retry_rng = None  # lazily created "resilience.retry" stream

        # Cluster-wide measurements: one latency record per response.
        self.reset_latency_stats()
        self.msgs_local = 0
        self.msgs_remote = 0
        self.migrations_total = 0
        self.rejected_requests = 0
        # One per client_request call that returns (a retry is another
        # attempt of the same request): issued = completed + timed out +
        # rejected + shed + in flight.
        self.requests_issued = 0
        self.requests_completed = 0
        self.requests_timed_out = 0
        self.requests_shed = 0
        self.request_retries = 0
        self.late_responses = 0
        self.actor_crashes = 0
        self.failovers = 0
        # call_id of the live attempt -> its request.  Responses whose
        # call id is absent are late or duplicated and get discarded
        # (counted in late_responses), never double-completed.
        self._inflight: dict[int, _ClientRequest] = {}
        # Each attempt's timeout, live while its call id is in _inflight.
        self._deadlines = Deadlines(clock, self._inflight,
                                    self._client_request_timed_out)
        # Every request between issue and outcome, dispatched or parked
        # in retry backoff — the admission window.  Insertion-ordered, so
        # drop_oldest finds its victim from the stale end.
        self._open: dict[_ClientRequest, None] = {}

        if config.idle_collection_age is not None:
            self.sim.schedule(config.idle_collection_period,
                              self._idle_collection_tick)

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    def _ingress(self, gateway: "SiloCore", destination: int,
                 message: Message) -> None:
        """A client's message enters the cluster at ``gateway``, already
        resolved to ``destination``.  Never counted as an actor message."""
        raise NotImplementedError

    def send_control(self, size: int, callback: Callable[..., Any],
                     *args: Any) -> None:
        """One control-plane hop (partition agents): ``callback(*args)``
        after a network transit, bypassing the data path."""
        raise NotImplementedError

    def run(self, until: Optional[float] = None) -> None:
        """Advance the engine to ``until`` on its clock; None = to idle."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle and the client-facing API
    # ------------------------------------------------------------------
    def start(self) -> "ClusterCore":
        """Bring the engine up (open transports). Idempotent."""
        return self

    def shutdown(self) -> None:
        """Release engine resources (sockets, loops). Idempotent."""

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

    def spawn(self, ref: ActorRef, server: Optional[int] = None) -> int:
        """Eagerly activate ``ref`` (idempotent), returning its silo.

        ``server`` is a placement preference; a dead preference
        folds into the live set.  Without it the placement policy
        decides.  Actors not spawned explicitly still activate lazily on
        first message — Orleans' virtual-actor contract.
        """
        location = self.locate(ref)
        if location is not None:
            return location
        if server is None:
            server = self.placement.choose(ref, 0, self.num_servers)
        destination = self.pick_live_server(server)
        self.activate(ref, destination)
        return destination

    def send(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256) -> None:
        """Fire-and-forget one-way message from outside the cluster."""
        gateway = self._pick_gateway()
        destination = gateway._resolve_or_place(ref)
        self._ingress(gateway, destination, Message(
            kind=MessageKind.ONEWAY, target=ref, method=method,
            args=args, size=size, created_at=self.sim.now))

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
        """A live server, preferring the caller's own (used when
        placement lands on a dead silo)."""
        if preferred is not None and not self.silos[preferred].dead:
            return preferred
        live = self._live_servers()
        if not live:
            raise RuntimeError("every silo in the cluster has failed")
        return live[self._gateway_rng.randrange(len(live))]

    def _live_servers(self) -> list[int]:
        return [s.server_id for s in self.silos if not s.dead]

    def _pick_gateway(self) -> "SiloCore":
        """The silo a client's next message enters through.  Raises when
        every silo has failed — before anything is registered for it."""
        return self.silos[self.pick_live_server(
            self._gateway_rng.randrange(self.num_servers))]

    def census(self) -> dict[int, int]:
        return self.directory.census()

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
        now = self.sim.now
        deadline_at = (now + self.request_deadline
                       if self.request_deadline is not None else None)
        state = _ClientRequest(ref, method, args, size, response_size,
                               on_complete, idempotent, now, deadline_at)
        if self._admit(state):
            self._dispatch_attempt(state, now)
        # Counted once it is dispatched or shed: a call that raises
        # because every silo has failed issued nothing.
        self.requests_issued += 1

    def _dispatch_attempt(self, state: _ClientRequest, now: float) -> None:
        """One dispatch of a request (first try or retry)."""
        state.attempts += 1
        gateway = self._pick_gateway()
        destination = gateway._resolve_or_place(state.ref)
        call_id = next_call_id()
        state.call_id = call_id
        self._open[state] = None  # a retry keeps its place in the window
        self._inflight[call_id] = state
        message = Message(
            kind=MessageKind.CLIENT_REQUEST,
            target=state.ref,
            method=state.method,
            args=state.args,
            size=state.size,
            call_id=call_id,
            created_at=now,
            response_size=state.response_size,
        )
        timeout = self.call_timeout
        if state.deadline_at is not None:
            remaining = max(state.deadline_at - now, 0.0)
            timeout = remaining if timeout is None else min(timeout, remaining)
        if timeout is not None:
            self._deadlines.add(now + timeout, call_id, timeout)
        self._ingress(gateway, destination, message)

    def complete_client_request(self, response: Message) -> None:
        """Called when a client response leaves the cluster."""
        state = self._inflight.pop(response.call_id, None)
        if state is None:
            # Late (the request already timed out / was shed) or a
            # network-duplicated delivery: discard, never double-complete.
            self.late_responses += 1
            return
        # Retried requests measure from first issue, not last attempt.
        latency = self.sim.now - state.t0
        del self._open[state]
        self.client_latency.record(latency)
        self.requests_completed += 1
        if state.on_complete is not None:
            state.on_complete(latency, response.result)

    def _client_request_timed_out(self, call_id: int, timeout: float) -> None:
        """``timeout`` is the budget this attempt's deadline was set with
        (``call_timeout``, or what the request deadline left of it)."""
        state = self._inflight.pop(call_id)
        # This attempt is dead: its late response, if any, will be
        # discarded via _inflight.
        now = self.sim.now
        deadline_at = state.deadline_at
        if deadline_at is not None and now >= deadline_at:
            self._time_out(state, self.request_deadline)
        elif not self._should_retry(state):
            self._time_out(state, timeout)
        else:
            backoff = self.retry_policy.delay_for(
                state.attempts, self._retry_stream()) * self.time_scale
            if deadline_at is not None and now + backoff >= deadline_at:
                # A retry dispatched at the deadline could never be
                # answered: the request waits it out and ends there, once.
                state.backoff_timer = self.sim.schedule(
                    deadline_at - now, self._time_out, state,
                    self.request_deadline)
                return
            self.request_retries += 1
            obs = self.obs
            if obs is not None:
                from ..obs.events import RetryEvent

                obs.events.emit(RetryEvent(
                    now, target=str(state.ref), method=state.method,
                    attempt=state.attempts, backoff=backoff))
            state.backoff_timer = self.sim.schedule(
                backoff, self._retry_attempt, state)

    def _time_out(self, state: _ClientRequest, budget: float) -> None:
        """The request's one terminal timeout, after ``budget`` clock
        seconds (the last attempt's, or the whole request deadline)."""
        state.backoff_timer = None
        self.requests_timed_out += 1
        del self._open[state]
        if state.on_complete is not None:
            state.on_complete(budget, CallTimeout(
                state.ref, state.method, budget / self.time_scale))

    def _should_retry(self, state: _ClientRequest) -> bool:
        policy = self.retry_policy
        return (policy is not None and state.attempts < policy.max_attempts
                and state.idempotent)

    def _retry_attempt(self, state: _ClientRequest) -> None:
        state.backoff_timer = None
        self._dispatch_attempt(state, self.sim.now)

    def _retry_stream(self):
        if self._retry_rng is None:
            self._retry_rng = self.rng.stream("resilience.retry")
        return self._retry_rng

    # ------------------------------------------------------------------
    # Admission control (graceful degradation under overload)
    # ------------------------------------------------------------------
    def _admit(self, state: _ClientRequest) -> bool:
        """Whether the window has (or can be made to have) room for one
        more request; a refused ``state`` has been shed."""
        admission = self.admission
        if (admission is None or admission.capacity is None
                or len(self._open) < admission.capacity):
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
            (r for r in self._open if r.backoff_timer is not None), None
        )
        if victim is None:
            self._shed(state, "drop_oldest", victim_age=0.0)
            return False
        self._abandon(victim)
        return True

    def _abandon(self, victim: _ClientRequest) -> None:
        """Evict a request parked in retry backoff from the admission
        window; :meth:`_admit` never picks dispatched work."""
        del self._open[victim]
        victim.backoff_timer.cancel()
        victim.backoff_timer = None
        self._shed(victim, "drop_oldest",
                   victim_age=self.sim.now - victim.t0)

    def reject_client_request(self, call_id: int) -> None:
        """A receiver stage refused a client request over its queue
        bound: the request ends here, once, shed (``rejected_requests``)."""
        state = self._inflight.pop(call_id, None)
        if state is None:
            return  # this attempt already timed out; its request ends there
        self.rejected_requests += 1
        del self._open[state]
        self._shed(state, "receiver_queue", victim_age=self.sim.now - state.t0)

    def _shed(self, state: _ClientRequest, policy: str,
              victim_age: float) -> None:
        if policy != "receiver_queue":
            self.requests_shed += 1
        obs = self.obs
        if obs is not None:
            from ..obs.events import ShedEvent

            obs.events.emit(ShedEvent(
                self.sim.now, target=str(state.ref), method=state.method,
                policy=policy, victim_age=victim_age))
        if state.on_complete is not None:
            state.on_complete(
                victim_age,
                RequestShed(state.ref, state.method, policy))

    @property
    def inflight_requests(self) -> int:
        """Client requests currently between issue and outcome."""
        return len(self._open)

    # ------------------------------------------------------------------
    # Measurement hooks
    # ------------------------------------------------------------------
    def reset_latency_stats(self) -> None:
        """Discard warmup samples (benches call this at steady state)."""
        self.client_latency = LatencyRecorder(reservoir=200_000)
        self.call_latency = LatencyRecorder(reservoir=200_000)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(servers={self.num_servers}, "
            f"actors={len(self.directory)}, t={self.sim.now:.3f})"
        )


class _Continuation:
    """A generator turn, parked at a yield while it waits.

    One per turn, re-armed at every yield: ``issue_time`` is the yield's,
    ``results``/``remaining`` the open ``All`` join (None while the turn
    awaits a single ``Call`` or a ``Sleep``).
    """

    __slots__ = ("activation", "generator", "origin", "remaining", "results",
                 "issue_time")

    def __init__(self, activation: Activation, generator, origin: Message):
        self.activation = activation
        self.generator = generator
        self.origin = origin
        self.remaining = 0
        self.results: Optional[list[Any]] = None
        self.issue_time = 0.0


class SiloCore:
    """One server of the cluster.  Created and owned by the runtime.

    Message paths follow Fig. 3: a remote call is shipped
    (:meth:`_send_remote`) and taken in by the destination's ``deliver``,
    a local call is a deep copy straight into the target's work queue.
    Turn execution implements the generator-coroutine actor model of
    :mod:`repro.actor.actor`, with per-activation single-threading and
    (optional) reentrancy at yield points.

    Transparent migration (§4.3) is opportunistic: the silo deactivates
    the actor once quiescent, unregisters it from the directory, plants
    location-cache hints on itself and the destination, and re-drives any
    messages that raced with the deactivation; the *next* message then
    re-places the actor — usually on the hinted server.

    Stale work never runs after a crash: :meth:`fail` orphans every
    activation (queue emptied, ``segment_running`` cleared) and empties
    the pending-call table, so a segment that was in flight is dropped
    when it completes, and a parked continuation — waiting on a
    response, a deadline or a ``Sleep`` — by its missing pending entry,
    even after :meth:`restart`.
    """

    # Armed race sanitizer; class-level None keeps the disarmed turn
    # path to a single attribute load.
    _san = None

    def __init__(self, runtime: ClusterCore, server_id: int):
        self.runtime = runtime
        self.sim = runtime.sim
        self.server_id = server_id
        self.activations: dict[ActorId, Activation] = {}
        # Communication edges (§4.3), recorded only where a partition agent
        # reads them: PartitionAgent installs the table, None means off.
        self.comm_table: Optional[CommTable] = None
        self.location_cache = LocationCache()
        # call_id -> (continuation, slot) for what this silo's turns
        # await: responses to their calls, and Sleep wake-ups.
        self._pending: dict[int, tuple[_Continuation, int]] = {}
        self._deadlines = Deadlines(self.sim, self._pending,
                                    self._call_timed_out)
        self.dead = False

        # Placement-path counters (§4.3's opportunistic-migration claim):
        # how re-placements were decided by THIS silo.
        self.placements_hinted = 0     # location-cache hint used
        self.placements_at_caller = 0  # re-placement with no hint
        self.placements_new = 0        # brand-new actor via policy

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    def _pump(self, activation: Activation) -> None:
        """Give the activation's next eligible work item (if any, and if
        none is running: ``next_eligible()``, then ``segment_running =
        True``) a processor; :meth:`_segment_done` runs it."""
        raise NotImplementedError

    def _send_remote(self, message: Message, destination: int) -> None:
        """Ship ``message`` to silo ``destination``'s ``deliver``."""
        raise NotImplementedError

    def _reply_to_client(self, response: Message) -> None:
        """Carry a client-bound response out of the cluster, into
        ``runtime.complete_client_request``."""
        raise NotImplementedError

    def _on_down(self) -> None:
        """The silo left service: drop what the driver holds for it."""

    def _on_up(self) -> None:
        """The silo is back in service."""

    def _driver_idle(self) -> bool:
        """Nothing of this silo's is queued or in flight below the core."""
        raise NotImplementedError

    def load(self) -> float:
        """Host contention a pool router should steer away from."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, _event, message: Message) -> None:
        """A message has arrived at this silo (off the wire, or from a
        client through this gateway).  Shaped as a stage-completion
        callback, the receiver stage's (the asyncio driver passes no
        event); a message that reaches a dead silo is dropped."""
        if self.dead:
            return  # callers' timeouts handle it
        if message.kind is MessageKind.RESPONSE:
            self._handle_response(message, None)
            return
        activation = self.activations.get(message.target)
        if activation is not None:
            # A deactivating (migrating) actor keeps serving until it hits
            # a quiescent instant.  Parking new arrivals instead would
            # deadlock on call cycles: the actor cannot quiesce while its
            # own pending call depends on a message parked behind it.
            self._enqueue_invocation(activation, message, None)
            return
        # Not hosted here (migrated away, or we were never the host):
        # re-resolve and forward.  §4.3's "placed on the server which
        # originated the call" materializes here via _resolve_or_place.
        self._dispatch_request(message)

    # ------------------------------------------------------------------
    # Resolution, placement, dispatch
    # ------------------------------------------------------------------
    def _resolve_or_place(self, target: ActorId) -> int:
        runtime = self.runtime
        location = runtime.directory.lookup(target)
        if location is not None:
            return location
        hint = self.location_cache.get(target)
        if hint is not None:
            # §4.3: a server that witnessed the migration places the
            # actor on the migration destination.
            destination = hint
            self.placements_hinted += 1
        elif target in runtime.storage or target in runtime.discarded:
            # §4.3: an actor that existed before (deactivated, e.g. by a
            # migration this server did not witness) is re-placed "on the
            # server which originated the call".
            destination = self.server_id
            self.placements_at_caller += 1
        else:
            # Brand-new actor: the configured placement policy decides.
            destination = runtime.placement.choose(
                target, self.server_id, runtime.num_servers
            )
            self.placements_new += 1
        dest_silo = runtime.silos[destination]
        if dest_silo.dead:
            # Membership view: never place onto a failed silo.  Fold the
            # chosen destination into the live set deterministically (no
            # RNG draw) so placements stay uniform — redirecting to the
            # caller would pile every re-placed actor onto the silos that
            # happen to originate calls.
            dead = destination
            live = runtime._live_servers()
            if not live:
                raise RuntimeError("every silo in the cluster has failed")
            destination = live[destination % len(live)]
            runtime.failovers += 1
            obs = runtime.obs
            if obs is not None:
                from ..obs.events import FailoverEvent

                obs.events.emit(FailoverEvent(
                    self.sim.now, actor=str(target), dead_server=dead,
                    new_server=destination))
        runtime.activate(target, destination)
        return destination

    def _dispatch_request(self, message: Message) -> None:
        """Send a request toward its target, wherever that now is."""
        target = message.target
        destination = self.runtime.directory.lookup(target)
        if destination is None:
            destination = self._resolve_or_place(target)
        if destination == self.server_id:
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.runtime.msgs_local += 1
            self._enqueue_invocation(self.activations[target], message,
                                     message.size)
        else:
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.runtime.msgs_remote += 1
            self._send_remote(message, destination)

    # ------------------------------------------------------------------
    # Turn execution
    # ------------------------------------------------------------------
    def _enqueue_invocation(self, activation: Activation, message: Message,
                            copied: Optional[int]) -> None:
        """Queue a new turn.  ``copied``: the bytes a local sender deep
        copied to deliver ``message``, None when it arrived otherwise."""
        comm = self.comm_table
        if comm is not None and message.sender is not None:
            comm.record(activation.actor_id, message.sender)
        # When its sender made it: no clock reading per message, and the
        # idle collector's ages are seconds against a transit of ms.
        activation.last_active = message.created_at
        queue = activation.queue
        if queue is None:
            queue = activation.queue = []  # no list until the first item
        queue.append((None, message, False, copied))
        self._pump(activation)

    def _segment_done(self, _event, activation: Activation,
                      item: WorkItem) -> None:
        """``item`` has its processor: run the segment.  Shaped as a
        stage-completion callback (the asyncio drain passes no event)."""
        if not activation.segment_running:
            return  # fail() orphaned it while the segment was in flight
        activation.segment_running = False
        san = self._san
        if san is not None:
            # Attribute everything this turn segment touches to the
            # activation whose turn is running: the sanitizer's conflict
            # detection keys on cross-activation access at one instant.
            san.push_context(f"activation:{activation.actor_id}")
        try:
            turn, value, throw, _copied = item
            if turn is not None:
                self._advance_turn(turn, value, throw)
            else:
                activation.open_turns += 1
                self._start_turn(activation, value)
        finally:
            if san is not None:
                san.pop_context()
        if activation.queue:
            self._pump(activation)
        elif activation.deactivating:
            self._maybe_finalize_deactivation(activation)

    def _start_turn(self, activation: Activation, message: Message) -> None:
        instance = activation.instance
        try:
            if activation.stopped:
                raise ActorError(f"actor {activation.actor_id} was stopped "
                                 "by its supervisor")
            result = getattr(instance, message.method)(*message.args)
        except ActorError as error:
            # Application-level failure: becomes the call's result and
            # re-raises at the caller's await point.
            result = error
        except Exception as error:  # noqa: BLE001 — the supervisor's verdict
            self._crash_turn(activation, message, error)
            return
        if is_generator_method(type(instance), message.method):
            self._advance_turn(_Continuation(activation, result, message),
                               None, False)
        else:
            self._complete_turn(activation, message, result)

    def _crash_turn(self, activation: Activation, origin: Message,
                    error: Exception) -> None:
        """A non-``ActorError`` escaped a turn: the supervisor decides the
        actor's fate, and the caller sees the crash as the turn's result."""
        runtime = self.runtime
        supervisor = runtime.supervisor
        if supervisor is None:
            raise error
        if not hasattr(activation.instance, origin.method):
            # A message nobody can handle is its sender's error.
            result = ActorError(f"actor {activation.actor_id} has no "
                                f"method {origin.method!r}")
        else:
            runtime.actor_crashes += 1
            decision = supervisor.decide(activation.actor_id, self.sim.now)
            if decision == "restart":
                # In place: fresh instance, last persisted state.
                activation.instance = self._new_instance(activation.actor_id)
                activation.instance.on_activate()
            elif decision == "stop":
                activation.stopped = True
            else:  # escalate: the failure is the silo's
                self.fail()
                return
            result = ActorCrashed(activation.actor_id, origin.method, error)
        self._complete_turn(activation, origin, result)

    def _advance_turn(self, turn: _Continuation, send_value: Any,
                      throw: bool) -> None:
        """Step the turn's generator to its next suspending yield."""
        activation, generator, origin = (turn.activation, turn.generator,
                                         turn.origin)
        san = self._san
        while True:
            try:
                if throw:
                    throw = False
                    yielded = generator.throw(send_value)
                else:
                    yielded = generator.send(send_value)
            except StopIteration as stop:
                self._complete_turn(activation, origin, stop.value)
                return
            except ActorError as error:
                # Uncaught at this level: fail the whole turn; the error
                # propagates to this turn's own caller.
                self._complete_turn(activation, origin, error)
                return
            except Exception as error:  # noqa: BLE001 — the supervisor's verdict
                self._crash_turn(activation, origin, error)
                return
            if not isinstance(yielded, Tell):
                break
            # Fire-and-forget: dispatch and resume the turn immediately.
            if san is not None:
                san.probe_payload(activation.instance, generator,
                                  yielded.args)
            target = yielded.target
            comm = self.comm_table
            if comm is not None:
                comm.record(activation.actor_id, target)
            self._dispatch_request(Message(
                kind=MessageKind.ONEWAY,
                target=target,
                method=yielded.method,
                args=yielded.args,
                size=yielded.size,
                sender=activation.actor_id,
                created_at=self.sim.now,
            ))
            send_value = None

        turn.issue_time = now = self.sim.now
        runtime = self.runtime
        pending = self._pending
        if isinstance(yielded, Call):
            calls = (yielded,)
        elif isinstance(yielded, All):
            calls = yielded.calls
            turn.remaining = len(calls)
            turn.results = [None] * len(calls)
        elif isinstance(yielded, Sleep):
            # A pending entry that only its own timer resolves.
            call_id = next_call_id()
            pending[call_id] = (turn, 0)
            activation.pending_calls += 1
            self.sim.defer(yielded.duration * runtime.time_scale,
                           self._resolve_call, call_id, None, None)
            return
        else:
            self._crash_turn(activation, origin, TypeError(
                f"actor {activation.actor_id} yielded {yielded!r}; expected "
                "Call, All, Sleep, or Tell"))
            return
        default_timeout = runtime.call_timeout
        for slot, call in enumerate(calls):
            if san is not None:
                san.probe_payload(activation.instance, generator, call.args)
            call_id = next_call_id()
            pending[call_id] = (turn, slot)
            activation.pending_calls += 1
            target = call.target
            comm = self.comm_table
            if comm is not None:
                comm.record(activation.actor_id, target)
            request = Message(
                MessageKind.CALL, target, call.method, call.args, call.size,
                call_id,
                sender=activation.actor_id,
                reply_to_server=self.server_id,
                created_at=now,
                response_size=call.response_size,
            )
            timeout = (call.timeout * runtime.time_scale
                       if call.timeout is not None else default_timeout)
            if timeout is not None:
                self._deadlines.add(now + timeout, call_id, target,
                                    call.method, timeout)
            self._dispatch_request(request)

    def _complete_turn(self, activation: Activation, origin: Message, result: Any) -> None:
        activation.open_turns -= 1
        if origin.kind is MessageKind.ONEWAY:
            return
        if origin.kind is MessageKind.CLIENT_REQUEST:
            self._reply_to_client(origin.make_response(
                result, size=CLIENT_RESPONSE_SIZE,
                server_id=self.server_id,
            ))
            return
        # Actor-to-actor response.
        response = origin.make_response(result, size=origin.response_size,
                                        server_id=self.server_id)
        comm = self.comm_table
        if comm is not None:
            comm.record(activation.actor_id, origin.sender)
        destination = origin.reply_to_server
        if destination == self.server_id:
            self.runtime.msgs_local += 1
            self._handle_response(response, response.size)
        else:
            self.runtime.msgs_remote += 1
            self._send_remote(response, destination)

    def _handle_response(self, response: Message,
                         copied: Optional[int]) -> None:
        resolved = self._resolve_call(response.call_id, response.result,
                                      copied, sender=response.sender)
        if resolved is not None:
            self.runtime.call_latency.record(
                self.sim.now - resolved.issue_time)
        else:
            # Late: its call already timed out, or its caller crashed.
            self.runtime.late_responses += 1

    def _call_timed_out(self, call_id: int, target: ActorId, method: str,
                        timeout: float) -> None:
        self._resolve_call(
            call_id,
            CallTimeout(target, method, timeout / self.runtime.time_scale),
            None,
        )

    def _resolve_call(
        self,
        call_id: int,
        result: Any,
        copied: Optional[int],
        sender: Optional[ActorId] = None,
    ) -> Optional[_Continuation]:
        """Fill one awaited slot; resume the turn when the join completes.

        A result that is an :class:`ActorError` is re-thrown inside the
        awaiting generator once all its calls resolved (the first error
        in call order wins).  Returns the continuation, or None for a
        stale call id.
        """
        entry = self._pending.pop(call_id, None)
        if entry is None:
            return None  # stale: already timed out or responded
        turn, slot = entry
        activation = turn.activation
        activation.pending_calls -= 1
        comm = self.comm_table
        if comm is not None and sender is not None:
            comm.record(activation.actor_id, sender)
        results = turn.results
        if results is not None:
            results[slot] = result
            turn.remaining -= 1
            if turn.remaining:
                return turn  # the join is still open
            turn.results = None
            result = next((r for r in results if isinstance(r, ActorError)),
                          results)
        queue = activation.queue
        if queue is None:
            queue = activation.queue = []
        queue.append((turn, result, isinstance(result, ActorError), copied))
        self._pump(activation)
        return turn

    # ------------------------------------------------------------------
    # Activation lifecycle & migration (§4.3)
    # ------------------------------------------------------------------
    def _new_instance(self, actor_id: ActorId) -> Actor:
        """A fresh instance bound here, restored from persisted state."""
        instance = self.runtime.actor_types[actor_id.actor_type]()
        instance._id = actor_id
        state = self.runtime.storage.get(actor_id)
        if state is not None:
            instance.restore_state(state)
        return instance

    def host(self, actor_id: ActorId) -> Activation:
        """Create an activation for ``actor_id`` on this silo."""
        if actor_id in self.activations:
            raise ValueError(f"{actor_id} is already active on silo {self.server_id}")
        san = self._san
        if san is not None:
            # Lifecycle writes (restore/on_activate) belong to the
            # activation itself, not to whichever stage triggered hosting.
            san.push_context(f"activation:{actor_id}")
        try:
            instance = self._new_instance(actor_id)
            activation = Activation(actor_id, instance)
            self.activations[actor_id] = activation
            instance.on_activate()
        finally:
            if san is not None:
                san.pop_context()
        obs = self.runtime.obs
        if obs is not None:
            from ..obs.events import ActivationEvent

            obs.events.emit(ActivationEvent(
                self.sim.now, server=self.server_id, actor=str(actor_id)))
        return activation

    def migrate(self, actor_id: ActorId, destination: int) -> bool:
        """Begin opportunistic migration of a hosted actor toward
        ``destination``.  Returns False if the actor is not here or is
        already being deactivated."""
        if destination == self.server_id:
            return False
        return self._begin_deactivation(actor_id, destination, False)

    def deactivate(self, actor_id: ActorId, discard_state: bool = False) -> bool:
        """Plain deactivation (idle collection) — no placement hint."""
        return self._begin_deactivation(actor_id, None, discard_state)

    def _begin_deactivation(self, actor_id: ActorId, hint: Optional[int],
                            discard_state: bool) -> bool:
        activation = self.activations.get(actor_id)
        if activation is None or activation.deactivating:
            return False
        activation.deactivating = True
        activation.discard_state = discard_state
        activation.deactivation_hint = hint
        self._maybe_finalize_deactivation(activation)
        return True

    def collect_idle(self, max_age: float) -> int:
        """Deactivate every quiescent actor idle for longer than
        ``max_age`` seconds (Orleans' activation garbage collection).
        Returns the number of actors collected."""
        now = self.sim.now
        collected = 0
        for actor_id in [
            aid for aid, act in self.activations.items()
            if not act.deactivating
            and act.quiescent
            and now - act.last_active > max_age
        ]:
            if self.deactivate(actor_id):
                collected += 1
        return collected

    def _maybe_finalize_deactivation(self, activation: Activation) -> None:
        if not activation.deactivating or not activation.quiescent:
            return
        actor_id = activation.actor_id
        destination = activation.deactivation_hint
        activation.instance.on_deactivate()
        if activation.discard_state:
            self.runtime.storage.pop(actor_id, None)
            self.runtime.discarded.add(actor_id)
        else:
            self.runtime.storage[actor_id] = activation.instance.capture_state()
        del self.activations[actor_id]
        self.runtime.directory.unregister(actor_id)
        comm = self.comm_table
        if comm is not None:
            comm.departed.append(actor_id)
        obs = self.runtime.obs
        if obs is not None:
            from ..obs.events import DeactivationEvent, MigrationEvent

            obs.events.emit(DeactivationEvent(
                self.sim.now, server=self.server_id, actor=str(actor_id),
                migration_hint=destination))
        if destination is not None:
            # Both parties remember where the actor should land (§4.3).
            self.location_cache.hint(actor_id, destination)
            self.runtime.silos[destination].location_cache.hint(actor_id, destination)
            self.runtime.migrations_total += 1
            if obs is not None:
                obs.events.emit(MigrationEvent(
                    self.sim.now, actor=str(actor_id),
                    source=self.server_id, destination=destination))

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash this silo: volatile actor state is lost, in-flight work
        is dropped, inbound messages fall on the floor.  Actors it hosted
        are re-instantiated elsewhere on their next call, restored from
        the last *persisted* state (their most recent deactivation), per
        the Orleans fault-tolerance contract (§2)."""
        if self.dead:
            return
        self.dead = True
        lost = len(self.activations)
        comm = self.comm_table
        if comm is not None:
            comm.departed.extend(self.activations)
        for actor_id, activation in self.activations.items():
            self.runtime.directory.unregister(actor_id)
            # Orphan what it had queued and the segment it had in flight.
            activation.queue = None
            activation.segment_running = False
        self.activations.clear()
        self._deadlines.clear()
        self._pending.clear()
        self._on_down()
        obs = self.runtime.obs
        if obs is not None:
            from ..obs.events import SiloLifecycleEvent

            obs.events.emit(SiloLifecycleEvent(
                self.sim.now, server=self.server_id, up=False,
                activations_lost=lost))

    def restart(self) -> None:
        """Bring a failed silo back (empty, ready to host again)."""
        if not self.dead:
            return
        self.dead = False
        self._on_up()
        obs = self.runtime.obs
        if obs is not None:
            from ..obs.events import SiloLifecycleEvent

            obs.events.emit(SiloLifecycleEvent(
                self.sim.now, server=self.server_id, up=True))

    @property
    def idle(self) -> bool:
        """No turn of this silo's is awaited, queued, running or on its
        way out (hosted activations may sit here at rest)."""
        return not self._pending and self._driver_idle()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_activations(self) -> int:
        return len(self.activations)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.server_id}, actors={len(self.activations)})"
