"""The silo: one Orleans-style server.

A silo hosts activations and runs the paper's four SEDA stages (Fig. 2):

* **receiver** — deserializes inbound remote messages,
* **worker** — executes application logic (actor turns),
* **server_sender** — serializes actor-to-actor RPCs to other silos,
* **client_sender** — serializes responses going back to clients.

Message paths follow Fig. 3 exactly: a remote call pays
serialize -> network -> deserialize -> compute, while a local call pays a
deep copy and enqueues straight into the worker stage.  Turn execution
implements the generator-coroutine actor model of
:mod:`repro.actor.actor`, with per-activation single-threading and
(optional) reentrancy at yield points.

Transparent migration (§4.3) is implemented opportunistically: the silo
deactivates the actor once quiescent, unregisters it from the directory,
drops location-cache hints on itself and the destination, and re-drives
any messages that raced with the deactivation; the *next* message then
re-places the actor — usually on the hinted server.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs.events import (
    ActivationEvent,
    DeactivationEvent,
    FailoverEvent,
    MigrationEvent,
    SiloLifecycleEvent,
)
from ..seda.server import StagedServer
from ..seda.stage import Stage, StageEvent
from .activation import Activation, WorkItem, WorkKind
from .actor import is_generator_method
from .calls import All, Call, Sleep, Tell
from .commtable import CommTable
from .directory import LocationCache
from .errors import ActorError, CallTimeout
from .ids import ActorId
from .messages import Message, MessageKind, next_call_id

__all__ = ["Silo", "STAGE_NAMES"]

STAGE_NAMES = ("receiver", "worker", "server_sender", "client_sender")


class _Continuation:
    """A turn suspended at a yield, waiting for its responses."""

    __slots__ = ("activation", "generator", "origin", "remaining", "results", "join",
                 "issue_time")

    def __init__(self, activation: Activation, generator, origin: Message,
                 expected: int, join: bool, issue_time: float):
        self.activation = activation
        self.generator = generator
        self.origin = origin
        self.remaining = expected
        self.results: list[Any] = [None] * expected
        self.join = join
        self.issue_time = issue_time


class Silo:
    """One server of the cluster.  Created and owned by the runtime."""

    # Armed race sanitizer; class-level None keeps the disarmed turn
    # path to a single attribute load.
    _san = None

    def __init__(self, runtime, server_id: int):
        self.runtime = runtime
        self.sim = runtime.sim
        self.server_id = server_id
        cfg = runtime.config

        self.server = StagedServer(
            self.sim,
            processors=cfg.processors,
            switch_factor=cfg.switch_factor,
            dispatch_overhead=cfg.dispatch_overhead * cfg.time_scale,
            name=f"silo{server_id}",
        )
        threads = cfg.initial_threads or cfg.processors
        self.receiver = self.server.add_stage("receiver", threads)
        self.worker = self.server.add_stage("worker", threads, blocking=True)
        self.server_sender = self.server.add_stage("server_sender", threads)
        self.client_sender = self.server.add_stage("client_sender", threads)

        self.activations: dict[ActorId, Activation] = {}
        self.comm_table = CommTable()
        self.location_cache = LocationCache(cfg.location_cache_capacity)
        self._pending: dict[int, tuple[_Continuation, int]] = {}
        self._call_timers: dict[int, Any] = {}
        self.dead = False
        # Graceful scale-down (repro.autoscale): a draining silo keeps
        # serving its hosted activations but stops being a placement /
        # gateway target; once empty and idle it decommissions (dead).
        self.draining = False

        # Monotone counters (samplers diff them per window).
        self.msgs_local = 0
        self.msgs_remote = 0
        self.client_requests = 0
        self.rejected_requests = 0
        self.migrations_out = 0
        # Placement-path counters (§4.3's opportunistic-migration claim):
        # how re-placements were decided by THIS silo.
        self.placements_hinted = 0     # location-cache hint used
        self.placements_at_caller = 0  # re-placement with no hint
        self.placements_new = 0        # brand-new actor via policy

    # ------------------------------------------------------------------
    # Inbound path (from the network)
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """A message arrives off the wire: deserialize, then route."""
        if self.dead:
            return  # dropped on the floor; callers' timeouts handle it
        cap = self.runtime.max_receiver_queue
        if (
            cap is not None
            and message.kind is MessageKind.CLIENT_REQUEST
            and self.receiver.queue_length >= cap
        ):
            self.rejected_requests += 1
            self.runtime.rejected_requests += 1
            return
        cost = self.runtime.serialization.deserialize_cost(message.size)
        event = self.receiver.submit(cost, self._received, message)
        if message.trace is not None:
            event.ctx = message.trace

    def _received(self, event: StageEvent, message: Message) -> None:
        if self.dead:
            return
        self._route(message, arrived_remote=True)

    def _route(self, message: Message, arrived_remote: bool) -> None:
        if message.kind is MessageKind.RESPONSE:
            self._handle_response(message, extra_compute=0.0)
            return
        if message.kind is MessageKind.CLIENT_REQUEST:
            self.client_requests += 1
        target = message.target
        assert target is not None
        activation = self.activations.get(target)
        if activation is not None:
            # A deactivating (migrating) actor keeps serving until it hits
            # a quiescent instant.  Parking new arrivals instead would
            # deadlock on call cycles: the actor cannot quiesce while its
            # own pending call depends on a message parked behind it.
            self._enqueue_invocation(activation, message, extra_compute=0.0)
            return
        # Not hosted here (migrated away, or we were never the host):
        # re-resolve and forward.  §4.3's "placed on the server which
        # originated the call" materializes here via _resolve_or_place.
        self._dispatch_request(message)

    # ------------------------------------------------------------------
    # Resolution, placement, dispatch
    # ------------------------------------------------------------------
    def _resolve_or_place(self, target: ActorId) -> int:
        location = self.runtime.directory.lookup(target)
        if location is not None:
            return location
        hint = self.location_cache.get(target)
        if hint is not None:
            # §4.3: a server that witnessed the migration places the
            # actor on the migration destination.
            destination = hint
            self.placements_hinted += 1
        elif target in self.runtime.storage or target in self.runtime.discarded:
            # §4.3: an actor that existed before (deactivated, e.g. by a
            # migration this server did not witness) is re-placed "on the
            # server which originated the call".
            destination = self.server_id
            self.placements_at_caller += 1
        else:
            # Brand-new actor: the configured placement policy decides.
            destination = self.runtime.placement.choose(
                target, self.server_id, self.runtime.num_servers
            )
            self.placements_new += 1
        dest_silo = self.runtime.silos[destination]
        if dest_silo.dead or dest_silo.draining:
            # Membership view: never place onto a failed or draining
            # silo.  Fold the chosen destination into the live set
            # deterministically (no RNG draw) so placements stay uniform
            # — under elastic membership most of the fleet can be parked,
            # and redirecting to the caller would pile every re-placed
            # actor onto the silos that happen to originate calls.
            dead = destination
            live = [s.server_id for s in self.runtime.silos
                    if not (s.dead or s.draining)]
            if not live:
                raise RuntimeError("every silo in the cluster has failed")
            destination = live[destination % len(live)]
            self.runtime.failovers += 1
            obs = self.runtime.obs
            if obs is not None:
                obs.events.emit(FailoverEvent(
                    self.sim.now, actor=str(target), dead_server=dead,
                    new_server=destination))
        self.runtime.activate(target, destination)
        return destination

    def _dispatch_request(self, message: Message) -> None:
        """Send a request toward its target, wherever that now is."""
        target = message.target
        assert target is not None
        destination = self._resolve_or_place(target)
        if destination == self.server_id:
            activation = self.activations[target]
            copy = self.runtime.serialization.copy_cost(message.size)
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.msgs_local += 1
                self.runtime.msgs_local += 1
            self._enqueue_invocation(activation, message, extra_compute=copy)
        else:
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.msgs_remote += 1
                self.runtime.msgs_remote += 1
            self._send_remote(message, destination)

    def _send_remote(self, message: Message, destination: int) -> None:
        cost = self.runtime.serialization.serialize_cost(message.size)
        event = self.server_sender.submit(cost, self._serialized, message,
                                          destination)
        if message.trace is not None:
            event.ctx = message.trace

    def _serialized(self, event: StageEvent, message: Message, destination: int) -> None:
        if self.dead:
            return
        silo = self.runtime.silos[destination]
        latency = self.runtime.network.deliver(message.size, silo.deliver,
                                               message, src=self.server_id,
                                               dst=destination)
        ctx = message.trace
        if ctx is not None:
            obs = self.runtime.obs
            if obs is not None:
                obs.tracer.network_hop(ctx, self.server_id, destination,
                                       message.size, latency)

    # ------------------------------------------------------------------
    # Turn execution
    # ------------------------------------------------------------------
    def _enqueue_invocation(
        self, activation: Activation, message: Message, extra_compute: float
    ) -> None:
        if message.sender is not None:
            self.comm_table.record(activation.actor_id, message.sender)
        activation.last_active = self.sim.now
        cls = type(activation.instance)
        scale = self.runtime.time_scale
        item = WorkItem(
            WorkKind.START,
            compute=extra_compute + cls.compute_cost(message.method) * scale,
            wait=cls.wait_cost(message.method) * scale,
            message=message,
        )
        activation.queue.append(item)
        self._pump(activation)

    def _queue_resume(
        self,
        continuation: _Continuation,
        value: Any,
        extra_compute: float,
        throw: bool = False,
    ) -> None:
        item = WorkItem(
            WorkKind.RESUME,
            compute=extra_compute + self.runtime.resume_compute,
            continuation=continuation,
            value=value,
            throw=throw,
        )
        continuation.activation.queue.append(item)
        self._pump(continuation.activation)

    def _pump(self, activation: Activation) -> None:
        item = activation.next_eligible()
        if item is None:
            return
        activation.segment_running = True
        event = self.worker.submit(item.compute, self._segment_done, activation,
                                   item, wait=item.wait)
        # Attribute the worker segment to the message that caused it: the
        # inbound message for a fresh turn, the turn's origin for a resume.
        trace = (item.message.trace if item.message is not None
                 else item.continuation.origin.trace)
        if trace is not None:
            event.ctx = trace

    def _segment_done(self, event: StageEvent, activation: Activation, item: WorkItem) -> None:
        if self.dead:
            return
        activation.segment_running = False
        san = self._san
        if san is not None:
            # Attribute everything this turn segment touches to the
            # activation whose turn is running: the sanitizer's conflict
            # detection keys on cross-activation access at one instant.
            san.push_context(f"activation:{activation.actor_id}")
        try:
            if item.kind is WorkKind.START:
                activation.open_turns += 1
                activation.messages_handled += 1
                assert item.message is not None
                self._start_turn(activation, item.message)
            else:
                self._advance_turn(
                    activation,
                    item.continuation.generator,
                    item.value,
                    item.continuation.origin,
                    throw=item.throw,
                )
        finally:
            if san is not None:
                san.pop_context()
        self._pump(activation)
        self._maybe_finalize_deactivation(activation)

    def _start_turn(self, activation: Activation, message: Message) -> None:
        method = getattr(activation.instance, message.method)
        if is_generator_method(type(activation.instance), message.method):
            generator = method(*message.args)
            self._advance_turn(activation, generator, None, message)
        else:
            try:
                result = method(*message.args)
            except ActorError as error:
                # Application-level failure: becomes the call's result and
                # re-raises at the caller's await point.
                result = error
            self._complete_turn(activation, message, result)

    def _advance_turn(
        self, activation: Activation, generator, send_value: Any, origin: Message,
        throw: bool = False,
    ) -> None:
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
            if not isinstance(yielded, Tell):
                break
            # Fire-and-forget: dispatch and resume the turn immediately.
            oneway = Message(
                kind=MessageKind.ONEWAY,
                target=yielded.target.id,
                method=yielded.method,
                args=yielded.args,
                size=yielded.size,
                sender=activation.actor_id,
                created_at=self.sim.now,
                trace=self._child_trace(origin),
            )
            self.comm_table.record(activation.actor_id, yielded.target.id)
            self._dispatch_request(oneway)
            send_value = None

        if isinstance(yielded, Sleep):
            continuation = _Continuation(
                activation, generator, origin, expected=1, join=False,
                issue_time=self.sim.now,
            )
            activation.pending_calls += 1
            self.sim.defer(yielded.duration, self._sleep_done, continuation)
            return

        if isinstance(yielded, Call):
            calls = [yielded]
            join = False
        elif isinstance(yielded, All):
            calls = yielded.calls
            join = True
        else:
            raise TypeError(
                f"actor {activation.actor_id} yielded {yielded!r}; expected "
                "Call, All, or Sleep"
            )
        continuation = _Continuation(
            activation, generator, origin, expected=len(calls), join=join,
            issue_time=self.sim.now,
        )
        default_timeout = self.runtime.call_timeout
        for slot, call in enumerate(calls):
            call_id = next_call_id()
            self._pending[call_id] = (continuation, slot)
            activation.pending_calls += 1
            self.comm_table.record(activation.actor_id, call.target.id)
            trace = self._child_trace(origin)
            request = Message(
                kind=MessageKind.CALL,
                target=call.target.id,
                method=call.method,
                args=call.args,
                size=call.size,
                call_id=call_id,
                sender=activation.actor_id,
                reply_to_server=self.server_id,
                created_at=self.sim.now,
                response_size=call.response_size,
                trace=trace,
            )
            if trace is not None:
                self.runtime.obs.tracer.call_issued(
                    call_id, trace, f"{call.target.id}.{call.method}",
                    self.server_id,
                )
            timeout = (call.timeout * self.runtime.time_scale
                       if call.timeout is not None else default_timeout)
            if timeout is not None:
                self._call_timers[call_id] = self.sim.schedule(
                    timeout, self._call_timed_out, call_id,
                    call.target.id, call.method,
                )
            self._dispatch_request(request)

    def _child_trace(self, origin: Message):
        """A child trace context for a message caused by ``origin``.

        None-in, None-out: untraced turns spawn untraced messages, so the
        whole causal tree shares one sampling decision.
        """
        ctx = origin.trace
        if ctx is None:
            return None
        obs = self.runtime.obs
        return obs.tracer.child(ctx) if obs is not None else None

    def _sleep_done(self, continuation: _Continuation) -> None:
        if self.dead:
            return
        continuation.activation.pending_calls -= 1
        self._queue_resume(continuation, None, extra_compute=0.0)
        self._maybe_finalize_deactivation(continuation.activation)

    def _complete_turn(self, activation: Activation, origin: Message, result: Any) -> None:
        activation.open_turns -= 1
        if origin.kind is MessageKind.ONEWAY:
            return
        if origin.kind is MessageKind.CLIENT_REQUEST:
            response = origin.make_response(
                result, size=self.runtime.config.client_response_size,
                server_id=self.server_id,
            )
            cost = self.runtime.serialization.serialize_cost(response.size)
            event = self.client_sender.submit(cost, self._client_response_ready,
                                              response)
            if response.trace is not None:
                event.ctx = response.trace
            return
        # Actor-to-actor response.
        response = origin.make_response(result, size=origin.response_size,
                                        server_id=self.server_id)
        self.comm_table.record(activation.actor_id, origin.sender)
        destination = origin.reply_to_server
        assert destination is not None
        if destination == self.server_id:
            copy = self.runtime.serialization.copy_cost(response.size)
            self.msgs_local += 1
            self.runtime.msgs_local += 1
            self._handle_response(response, extra_compute=copy)
        else:
            self.msgs_remote += 1
            self.runtime.msgs_remote += 1
            self._send_remote(response, destination)

    def _client_response_ready(self, event: StageEvent, response: Message) -> None:
        if self.dead:
            return
        latency = self.runtime.network.deliver(
            response.size, self.runtime.complete_client_request, response,
            src=self.server_id,
        )
        ctx = response.trace
        if ctx is not None:
            obs = self.runtime.obs
            if obs is not None:
                obs.tracer.network_hop(ctx, self.server_id, None,
                                       response.size, latency)

    def _handle_response(self, response: Message, extra_compute: float) -> None:
        resolved = self._resolve_call(response.call_id, response.result,
                                      extra_compute, sender=response.sender)
        if resolved:
            self.runtime.record_call_latency(
                self.sim.now - resolved.issue_time
            )

    def _call_timed_out(self, call_id: int, target: ActorId, method: str) -> None:
        if self.dead:
            return
        self._call_timers.pop(call_id, None)
        timeout = self.runtime.call_timeout or 0.0
        self._resolve_call(
            call_id,
            CallTimeout(target, method, timeout / self.runtime.time_scale),
            extra_compute=0.0,
        )

    def _resolve_call(
        self,
        call_id: int,
        result: Any,
        extra_compute: float,
        sender: Optional[ActorId] = None,
    ) -> Optional[_Continuation]:
        """Fill one awaited slot; resume the turn when the join completes.

        A result that is an :class:`ActorError` is re-thrown inside the
        awaiting generator once all its calls resolved (first error wins).
        Returns the continuation, or None for a stale call id.
        """
        entry = self._pending.pop(call_id, None)
        if entry is None:
            return None  # stale: already timed out or responded
        obs = self.runtime.obs
        if obs is not None:
            obs.tracer.call_resolved(
                call_id, ok=not isinstance(result, ActorError))
        timer = self._call_timers.pop(call_id, None)
        if timer is not None:
            timer.cancel()
        continuation, slot = entry
        continuation.results[slot] = result
        continuation.remaining -= 1
        activation = continuation.activation
        activation.pending_calls -= 1
        if sender is not None:
            self.comm_table.record(activation.actor_id, sender)
        if continuation.remaining == 0:
            errors = [r for r in continuation.results
                      if isinstance(r, ActorError)]
            if errors:
                self._queue_resume(continuation, errors[0], extra_compute,
                                   throw=True)
            else:
                value = (continuation.results if continuation.join
                         else continuation.results[0])
                self._queue_resume(continuation, value, extra_compute)
        self._maybe_finalize_deactivation(activation)
        return continuation

    # ------------------------------------------------------------------
    # Activation lifecycle & migration (§4.3)
    # ------------------------------------------------------------------
    def host(self, actor_id: ActorId) -> Activation:
        """Create an activation for ``actor_id`` on this silo."""
        if actor_id in self.activations:
            raise ValueError(f"{actor_id} is already active on silo {self.server_id}")
        cls = self.runtime.actor_types[actor_id.actor_type]
        instance = cls()
        instance._bind(actor_id, self.server_id)
        san = self._san
        if san is not None:
            # Lifecycle writes (restore/on_activate) belong to the
            # activation itself, not to whichever stage triggered hosting.
            san.push_context(f"activation:{actor_id}")
        try:
            state = self.runtime.storage.get(actor_id)
            if state is not None:
                instance.restore_state(state)
            activation = Activation(actor_id, instance)
            self.activations[actor_id] = activation
            instance.on_activate()
        finally:
            if san is not None:
                san.pop_context()
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(ActivationEvent(
                self.sim.now, server=self.server_id, actor=str(actor_id)))
        return activation

    def migrate(self, actor_id: ActorId, destination: int) -> bool:
        """Begin opportunistic migration of a hosted actor toward
        ``destination``.  Returns False if the actor is not here or is
        already being deactivated."""
        activation = self.activations.get(actor_id)
        if activation is None or activation.deactivating:
            return False
        if destination == self.server_id:
            return False
        activation.deactivating = True
        activation.deactivation_hint = destination
        self._maybe_finalize_deactivation(activation)
        return True

    def deactivate(self, actor_id: ActorId, discard_state: bool = False) -> bool:
        """Plain deactivation (idle collection) — no placement hint."""
        activation = self.activations.get(actor_id)
        if activation is None or activation.deactivating:
            return False
        activation.deactivating = True
        activation.discard_state = discard_state
        activation.deactivation_hint = None
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
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(DeactivationEvent(
                self.sim.now, server=self.server_id, actor=str(actor_id),
                migration_hint=destination))
        if destination is not None:
            # Both parties remember where the actor should land (§4.3).
            self.location_cache.hint(actor_id, destination)
            self.runtime.silos[destination].location_cache.hint(actor_id, destination)
            self.migrations_out += 1
            self.runtime.record_migration()
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
        self.draining = False  # a crash preempts any graceful drain
        lost = len(self.activations)
        for actor_id in list(self.activations):
            self.runtime.directory.unregister(actor_id)
        self.activations.clear()
        for timer in self._call_timers.values():
            timer.cancel()
        self._call_timers.clear()
        self._pending.clear()
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(SiloLifecycleEvent(
                self.sim.now, server=self.server_id, up=False,
                activations_lost=lost))

    def restart(self) -> None:
        """Bring a failed silo back (empty, ready to host again)."""
        if not self.dead:
            return
        self.dead = False
        self.draining = False
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(SiloLifecycleEvent(
                self.sim.now, server=self.server_id, up=True))

    # ------------------------------------------------------------------
    # Graceful scale-down (repro.autoscale)
    # ------------------------------------------------------------------
    @property
    def quiesced(self) -> bool:
        """True when nothing is hosted, awaited, queued, or running here.

        The drain poll waits for this before decommissioning, so no
        in-flight turn segment or queued response is dropped on the
        floor the way a crash drops them.
        """
        if self.activations or self._pending:
            return False
        for stage in self.server.stages.values():
            if stage.queue_length or stage.busy_threads:
                return False
        return True

    def decommission(self) -> None:
        """Leave service after a graceful drain.

        Unlike :meth:`fail`, nothing is lost: the silo is already empty
        and idle, it simply stops accepting messages.  The same ``dead``
        flag governs membership, so placement, gateways, and failover
        treat a decommissioned silo exactly like a crashed one — and
        :meth:`restart` (via ``ActorRuntime.add_silo``) brings it back.
        """
        if self.dead:
            return
        self.dead = True
        self.draining = False
        for timer in self._call_timers.values():
            timer.cancel()
        self._call_timers.clear()
        self._pending.clear()
        obs = self.runtime.obs
        if obs is not None:
            obs.events.emit(SiloLifecycleEvent(
                self.sim.now, server=self.server_id, up=False,
                activations_lost=0))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_activations(self) -> int:
        return len(self.activations)

    def stage(self, name: str) -> Stage:
        return self.server.stage(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Silo({self.server_id}, actors={len(self.activations)})"
