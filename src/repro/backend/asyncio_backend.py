"""``AsyncioBackend``: the real runtime — the substitution table in reverse.

The same ``repro.actor`` programs that run on the discrete-event
simulator run here over genuine concurrency:

==========================  =============================================
simulated primitive         asyncio primitive
==========================  =============================================
event-heap virtual time     the loop's wall clock (``loop.time()``)
``sim.schedule(d, fn)``     ``loop.call_later(d, fn)``
per-activation work queue   one ``ready`` deque per silo under one armed
                            ``call_soon``; non-reentrant actors park mail
worker-stage turn segment   a plain function stepping the generator to its
                            next yield, then parking a ``_Turn``
``yield Call(...)``         the ``_Turn`` waits in ``silo.pending``; the
                            response (or the silo's one deadline heap:
                            lazy deletion, one timer) pushes its resume
``yield All([...])``        one pending slot per call, joined in call order
``yield Sleep(d)``          one ``call_later`` pushing the resume
modeled network transit     TCP frames (below) or an in-process hop
                            (``loop.call_soon``)
modeled serialization cost  actual ``pickle`` bytes on the TCP path
silo crash (model flag)     bump ``silo.epoch`` (stale resumes are dropped),
                            clear ready/pending/heap, close its sockets
==========================  =============================================

Silos share one loop and one process (``transport="inproc"`` by default);
``transport="tcp"`` gives every silo a real listening socket on
127.0.0.1 and routes every cross-silo message through the network stack,
so a "remote" call pays genuine serialize → socket → deserialize.
``transport="inproc-copy"`` keeps the in-process hop but pickle
round-trips every cross-silo message — TCP's copy semantics without the
sockets, so the XB portability crosscheck can prove reference-sharing
and copy delivery produce identical logical results.

The TCP wire form: a frame is a ``>I`` byte length followed by the
``pickle`` of a *list* of messages, and a ``Message`` pickles compactly
(a flat tuple of primitives, see :mod:`repro.actor.messages`).  Each
(silo, destination) pair has one :class:`_PeerLink` — one outbox, one
connection, at most one connect in flight — so messages between a pair
of silos are delivered in send order (per-pair FIFO; a link that dies
loses what it had queued).  Flow control: one ``call_soon`` flush per
loop iteration writes the whole outbox as one frame; when the transport
calls ``pause_writing`` messages stay in the outbox until
``resume_writing``.  The receiving side parses complete frames out of
``data_received`` and hands each message to ``silo.receive`` — no task
per send, no coroutine per frame.

The public surface deliberately mirrors the slice of
:class:`~repro.actor.runtime.ActorRuntime` that workloads and pools
drive (``register_actor`` / ``ref`` / ``activate`` / ``locate`` /
``client_request`` / ``silos`` / ``placement`` / ``rng`` / ``sim``), so
``StageflowWorkload`` and ``ActorPool`` run **unmodified** on either
engine — the acceptance bar of ROADMAP item 2.

What the real runtime adds that the simulator cannot: supervision
(:mod:`repro.backend.supervision`) — application exceptions inside a
turn are crash events with restart/stop/escalate semantics instead of
run-aborting bugs.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Hashable, Optional

from ..actor.actor import Actor, is_generator_method
from ..actor.calls import All, Call, Sleep, Tell
from ..analysis.sanitizer import current as _sanitizer_current
from ..actor.directory import Directory
from ..actor.errors import ActorCrashed, ActorError, CallTimeout
from ..actor.ids import ActorId, ActorRef
from ..actor.messages import Message, MessageKind, next_call_id
from ..actor.placement import PlacementPolicy, RandomPlacement
from ..actor.runtime import ClusterConfig
from ..bench.metrics import LatencyRecorder
from ..sim.rng import RngRegistry
from .base import Backend, BackendError, Clock
from .supervision import SupervisionPolicy, Supervisor

__all__ = ["AsyncioBackend", "WallClock", "DEFAULT_CALL_TIMEOUT"]

# Wall-clock seconds before an unanswered call/client request resolves
# as CallTimeout.  The simulator can afford "no timeout" (a lost message
# there is a modeling decision); on a real runtime a crashed callee must
# never hang its caller forever.
DEFAULT_CALL_TIMEOUT = 5.0

_FRAME_HEADER = struct.Struct(">I")
_TRANSPORTS = ("inproc", "inproc-copy", "tcp")


class WallClock:
    """Wall time rebased to 0 at backend construction.

    Satisfies the :class:`~repro.backend.base.Clock` protocol with the
    simulator's ``now``/``schedule``/``defer`` vocabulary so timer-based
    code (fault plans, report loops) runs against either engine.
    """

    __slots__ = ("_loop", "_t0")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._t0 = loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self._loop.call_later(max(0.0, delay), fn, *args)

    # The simulator distinguishes cancellable timers (schedule) from
    # fire-and-forget deferrals; on a real loop both are call_later.
    defer = schedule

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WallClock(now={self.now:.3f})"


class AsyncioActivation:
    """A live actor on one asyncio silo: instance + turn bookkeeping."""

    __slots__ = ("actor_id", "instance", "mailbox", "busy", "stopped",
                 "restarts", "messages_handled", "queued", "open_turns")

    def __init__(self, actor_id: ActorId, instance: Actor):
        self.actor_id = actor_id
        self.instance = instance
        # REENTRANT = False only: mail that arrives while a turn is open
        # or queued (``busy``, reserved at enqueue time) parks here.
        self.mailbox: Optional[deque[Message]] = (
            None if type(instance).REENTRANT else deque())
        self.busy = False
        self.stopped = False          # supervision verdict "stop"
        self.restarts = 0             # supervision restarts of this actor
        self.messages_handled = 0
        self.queued = 0               # enqueued, turn not yet started
        self.open_turns = 0

    @property
    def idle(self) -> bool:
        return self.queued == 0 and self.open_turns == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AsyncioActivation({self.actor_id})"


class _Turn:
    """A generator turn parked at a yield (the sim's ``_Continuation``).
    ``epoch`` is its silo's when it started: a resume carrying a stale
    one is dropped.  ``results``/``remaining``: the open ``All`` join."""

    __slots__ = ("activation", "origin", "generator", "epoch", "results",
                 "remaining")

    def __init__(self, activation, origin, generator, epoch):
        self.activation, self.origin = activation, origin
        self.generator, self.epoch = generator, epoch
        self.results: Optional[list] = None
        self.remaining = 0


class _WorkerShim:
    """The worker-stage sampling surface pools expect from a silo.

    The simulator exposes SEDA stage occupancy; here the analogues are
    mailbox depth (queued turns) and open turns (running/suspended), with
    ``processors`` standing in for the thread pool width.
    """

    __slots__ = ("_silo",)

    def __init__(self, silo: "AsyncioSilo"):
        self._silo = silo

    @property
    def queue_length(self) -> int:
        return self._silo.queued

    @property
    def busy_threads(self) -> int:
        return self._silo.open_turns

    @property
    def threads(self) -> int:
        return self._silo.backend.config.processors


class _CpuShim:
    """CPU-pressure sampling surface (``silo.server.cpu`` in the sim)."""

    __slots__ = ("_silo",)

    def __init__(self, silo: "AsyncioSilo"):
        self._silo = silo

    @property
    def run_queue_length(self) -> int:
        return self._silo.open_turns

    @property
    def processors(self) -> int:
        return self._silo.backend.config.processors


class _ServerShim:
    __slots__ = ("cpu",)

    def __init__(self, silo: "AsyncioSilo"):
        self.cpu = _CpuShim(silo)


def _parse_frames(buffer: bytes) -> tuple[list[list[Message]], bytes]:
    """Decode every complete frame at the head of ``buffer``; return the
    batches in order and the partial tail still to be completed."""
    batches = []
    start, end = 0, len(buffer)
    while end - start >= _FRAME_HEADER.size:
        (length,) = _FRAME_HEADER.unpack_from(buffer, start)
        stop = start + _FRAME_HEADER.size + length
        if stop > end:
            break
        batches.append(pickle.loads(buffer[start + _FRAME_HEADER.size:stop]))
        start = stop
    return batches, buffer[start:]


class _PeerLink(asyncio.Protocol):
    """One end of one silo-to-silo TCP connection (they are one-way).

    Outbound (``destination`` set): ``send`` appends to ``outbox`` and a
    single ``call_soon`` flush per loop iteration writes everything
    queued as one frame, so messages to one peer leave in send order on
    one connection — the per-pair FIFO guarantee.  While the connect is
    in flight or the transport has paused writing, messages wait in the
    outbox; ``connection_made``/``resume_writing`` flush them.  Inbound
    (accepted by ``silo``'s server): ``data_received`` hands every
    message of every complete frame straight to ``silo.receive``.
    """

    def __init__(self, silo: "AsyncioSilo", destination: Optional[int] = None,
                 port: Optional[int] = None):
        self.silo = silo
        self.loop = silo.loop
        self.destination = destination
        self.port = port
        self.transport: Optional[asyncio.Transport] = None
        self.connect_task: Optional[asyncio.Task] = None
        self.outbox: list[Message] = []
        self.writable = False     # connected and not paused by flow control
        self.buffer = b""

    async def connect(self) -> None:
        try:
            await self.loop.create_connection(
                lambda: self, "127.0.0.1", self.port)
        except OSError:
            self.connection_lost(None)  # refused: same as a link that died

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.destination is None:
            self.silo.inbound.add(self)
        else:
            self.resume_writing()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # The peer crashed (or we closed): what is queued is lost, and
        # the next send to this destination opens a fresh link.
        self.writable = False
        self.outbox.clear()
        if self.destination is None:
            self.silo.inbound.discard(self)
        elif self.silo.peers.get(self.destination) is self:
            del self.silo.peers[self.destination]

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self.flush()

    def send(self, message: Message) -> None:
        # Invariant: a non-empty outbox on a writable link has a flush
        # scheduled; an unwritable one is flushed by resume_writing.
        if self.writable and not self.outbox:
            self.loop.call_soon(self.flush)
        self.outbox.append(message)

    def flush(self) -> None:
        if not (self.writable and self.outbox):
            return
        batch, self.outbox = self.outbox, []
        payload = self.silo.backend._encode_batch(batch)
        self.transport.write(_FRAME_HEADER.pack(len(payload)) + payload)

    def data_received(self, data: bytes) -> None:
        batches, self.buffer = _parse_frames(self.buffer + data)
        receive = self.silo.receive
        for batch in batches:
            for message in batch:
                receive(message)

    def close(self) -> None:
        self.connection_lost(None)  # drop and deregister now, not a tick later
        if self.connect_task is not None:
            self.connect_task.cancel()
        if self.transport is not None:
            self.transport.abort()


class AsyncioSilo:
    """One silo: activations, their turn machine, an optional TCP port.

    Mirrors the membership flags and counters of the simulated
    :class:`~repro.actor.server.Silo` that workloads/pools/benches read
    (``dead``/``draining``/``activations``/``msgs_*``/``worker``/
    ``server``), so load sampling and deploy loops are backend-blind.
    """

    def __init__(self, backend: "AsyncioBackend", server_id: int):
        self.backend = backend
        self.loop = backend._loop
        self.server_id = server_id
        self.dead = False
        self.draining = False
        self.activations: dict[ActorId, AsyncioActivation] = {}
        # (activation, message) turn starts and (turn, value, throw)
        # resumes, drained by one armed call_soon(_drain).
        self.ready: deque[tuple] = deque()
        self.armed = False
        self.epoch = 0                # bumped by fail(): stale resumes drop
        # call_id -> (turn, slot, call, issued_at) for calls *issued
        # from* this silo's actors; their timeouts as a (deadline, call_id)
        # min-heap with lazy deletion (an answered call's entry stays
        # until it surfaces or the heap is rebuilt) under one timer.
        self.pending: dict[int, tuple] = {}
        self.deadlines: list[tuple[float, int]] = []
        self.deadline_timer: Optional[asyncio.TimerHandle] = None
        # destination silo -> outbound link (its outbox + connection);
        # and the links this silo's server accepted.
        self.peers: dict[int, _PeerLink] = {}
        self.inbound: set[_PeerLink] = set()
        self.tcp_server: Optional[asyncio.AbstractServer] = None
        self.queued = 0               # enqueued, turn not yet started
        self.open_turns = 0
        self.msgs_local = 0
        self.msgs_remote = 0
        self.client_requests = 0
        self.worker = _WorkerShim(self)
        self.server = _ServerShim(self)

    # ------------------------------------------------------------------
    @property
    def num_activations(self) -> int:
        return len(self.activations)

    @property
    def idle(self) -> bool:
        # queued covers turn starts on ``ready`` and parked mailboxes;
        # a resume on ``ready`` belongs to an open turn.
        return (self.open_turns == 0 and self.queued == 0
                and not self.pending
                and not any(link.outbox for link in self.peers.values()))

    # ------------------------------------------------------------------
    # Routing (issue path: counts local/remote like the sim's
    # _dispatch_request; arrival path: receive()).
    # ------------------------------------------------------------------
    def _resolve_or_place(self, target: ActorId) -> int:
        backend = self.backend
        location = backend.directory.lookup(target)
        if location is not None:
            return location
        if target in backend.storage or target in backend.discarded:
            # §4.3: a previously-seen actor re-places at the caller.
            destination = self.server_id
        else:
            destination = backend.placement.choose(
                target, self.server_id, backend.num_servers)
        dest_silo = backend.silos[destination]
        if dest_silo.dead or dest_silo.draining:
            live = [s.server_id for s in backend.silos
                    if not (s.dead or s.draining)]
            if not live:
                raise RuntimeError("every silo in the cluster has failed")
            destination = live[destination % len(live)]
            backend.failovers += 1
        backend.activate(target, destination)
        return destination

    def dispatch(self, message: Message) -> None:
        """Issue a request from this silo toward its target."""
        if self.dead:
            return  # dropped on the floor; callers' timeouts handle it
        if message.kind is MessageKind.CLIENT_REQUEST:
            self.client_requests += 1
        target = message.target
        assert target is not None
        destination = self._resolve_or_place(target)
        if destination == self.server_id:
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.msgs_local += 1
                self.backend.msgs_local += 1
            self._enqueue(self.activations[target], message)
        else:
            if message.kind is not MessageKind.CLIENT_REQUEST:
                self.msgs_remote += 1
                self.backend.msgs_remote += 1
            self.backend._transport_send(self, destination, message)

    def receive(self, message: Message) -> None:
        """A message arrives off the transport."""
        if self.dead:
            return
        if message.kind is MessageKind.RESPONSE:
            self.resolve_response(message)
            return
        activation = self.activations.get(message.target)
        if activation is not None:
            self._enqueue(activation, message)
            return
        # Migrated away (or crashed here): re-resolve and forward.
        self.dispatch(message)

    def _enqueue(self, activation: AsyncioActivation, message: Message) -> None:
        self.queued += 1
        activation.queued += 1
        if activation.mailbox is not None:  # REENTRANT = False
            if activation.busy:
                activation.mailbox.append(message)
                return
            activation.busy = True
        self._push((activation, message))

    def resolve_response(self, response: Message) -> None:
        entry = self.pending.pop(response.call_id, None)
        if entry is None:
            self.backend.late_responses += 1
            return
        turn, slot, _call, issued_at = entry
        backend = self.backend
        backend.call_latency.record(backend._clock.now - issued_at)
        self._land(turn, slot, response.result)

    # ------------------------------------------------------------------
    # Turn machine: ready deque -> turn segment -> parked _Turn
    # ------------------------------------------------------------------
    def _push(self, item: tuple) -> None:
        self.ready.append(item)
        if not self.armed:
            self.armed = True
            self.loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Run what was ready on entry; later arrivals get the next loop
        iteration, so sockets and timers are polled between batches and
        no turn runs inside its sender's stack frame."""
        ready = self.ready
        batch = len(ready)
        self.backend.turn_drains += 1
        self.backend.turns_run += batch
        try:
            while batch and ready:  # fail() mid-batch empties ``ready``
                batch -= 1
                item = ready.popleft()
                if len(item) == 2:
                    self._start_turn(*item)
                else:
                    self._step(*item)
        finally:
            if ready:
                self.loop.call_soon(self._drain)
            else:
                self.armed = False

    def _start_turn(self, activation: AsyncioActivation, message: Message) -> None:
        self.queued -= 1
        activation.queued -= 1
        activation.open_turns += 1
        self.open_turns += 1
        try:
            if activation.stopped:
                raise ActorError(f"actor {activation.actor_id} was stopped "
                                 "by its supervisor")
            activation.messages_handled += 1
            instance = activation.instance
            method = getattr(instance, message.method, None)
            if method is None:
                raise ActorError(f"actor {activation.actor_id} has no "
                                 f"method {message.method!r}")
            result = method(*message.args)
        except ActorError as error:
            result = error
        except Exception as error:  # noqa: BLE001 — supervision seam
            result = self.backend._actor_crashed(self, activation, message, error)
        else:
            if is_generator_method(type(instance), message.method):
                self._step(_Turn(activation, message, result, self.epoch), None, False)
                return
        self._complete_turn(activation, message, result)

    def _step(self, turn: _Turn, value: Any, throw: bool) -> None:
        """One turn segment: step the generator to its next suspending
        yield — the same Call / All / Tell / Sleep vocabulary the
        simulated ``Silo._advance_turn`` runs — and park the turn."""
        activation, origin = turn.activation, turn.origin
        backend = self.backend
        generator = turn.generator
        try:
            while True:
                if throw:
                    throw = False
                    yielded = generator.throw(value)
                else:
                    yielded = generator.send(value)
                value = None
                if isinstance(yielded, Call):
                    backend._probe_payload(activation, generator, yielded.args)
                    self._issue(turn, 0, yielded)
                    return
                if isinstance(yielded, All):
                    turn.remaining = len(yielded.calls)
                    turn.results = [None] * turn.remaining
                    for slot, call in enumerate(yielded.calls):
                        backend._probe_payload(activation, generator, call.args)
                        self._issue(turn, slot, call)
                    return
                if isinstance(yielded, Sleep):
                    self.loop.call_later(
                        yielded.duration * backend.config.time_scale,
                        self._resume, turn, None, False)
                    return
                if not isinstance(yielded, Tell):
                    raise TypeError(
                        f"actor {activation.actor_id} yielded {yielded!r}; "
                        "expected Call, All, Sleep, or Tell")
                # Fire-and-forget: dispatch and keep stepping.
                backend._probe_payload(activation, generator, yielded.args)
                self.dispatch(Message(
                    MessageKind.ONEWAY, yielded.target.id, yielded.method,
                    yielded.args, yielded.size, sender=activation.actor_id,
                    created_at=backend._clock.now))
        except StopIteration as stop:
            result = stop.value
        except ActorError as error:
            result = error  # uncaught in the turn: it is the turn's result
        except Exception as error:  # noqa: BLE001 — supervision seam
            result = backend._actor_crashed(self, activation, origin, error)
        self._complete_turn(activation, origin, result)

    def _issue(self, turn: _Turn, slot: int, call: Call) -> None:
        """One actor-to-actor call: park ``(turn, slot)`` under a fresh
        call id, put its timeout on the deadline heap, dispatch."""
        backend = self.backend
        deadlines, pending = self.deadlines, self.pending
        if len(deadlines) > 2 * len(pending) + 64:
            # Mostly answered calls by now: keep what is pending.
            deadlines[:] = [d for d in deadlines if d[1] in pending]
            heapify(deadlines)
        call_id = next_call_id()
        now = backend._clock.now
        pending[call_id] = (turn, slot, call, now)
        timeout = (call.timeout if call.timeout is not None
                   else backend.call_timeout)
        if timeout is not None:
            heappush(deadlines, (now + timeout, call_id))
            if deadlines[0][1] == call_id:  # the new earliest: (re)arm
                if self.deadline_timer is not None:
                    self.deadline_timer.cancel()
                self.deadline_timer = self.loop.call_later(
                    timeout, self._expire)
        self.dispatch(Message(
            MessageKind.CALL, call.target.id, call.method, call.args,
            call.size, call_id, sender=turn.activation.actor_id,
            reply_to_server=self.server_id, created_at=now,
            response_size=call.response_size))

    def _expire(self) -> None:
        """The deadline timer: time out every pending call that is due,
        skip answered ones, re-arm for the earliest still pending."""
        self.deadline_timer = None
        deadlines, pending = self.deadlines, self.pending
        backend = self.backend
        now = backend._clock.now
        while deadlines:
            deadline, call_id = deadlines[0]
            if call_id in pending:
                if deadline > now:
                    self.deadline_timer = self.loop.call_later(
                        deadline - now, self._expire)
                    return
                turn, slot, call, _issued_at = pending.pop(call_id)
                self._land(turn, slot, CallTimeout(
                    call.target.id, call.method, backend.call_timeout
                    if call.timeout is None else call.timeout))
            heappop(deadlines)

    def _disarm(self) -> None:
        """Nothing is pending: drop answered calls' entries and the timer."""
        self.deadlines.clear()
        if self.deadline_timer is not None:
            self.deadline_timer.cancel()
            self.deadline_timer = None

    def _land(self, turn: _Turn, slot: int, result: Any) -> None:
        """A call's result (response or timeout) lands in its slot; the
        last one to land resumes the turn — an ``All`` with the results
        in call order, or throwing the first error in call order."""
        results = turn.results
        if results is not None:
            results[slot] = result
            turn.remaining -= 1
            if turn.remaining:
                return
            turn.results = None
            result = next((r for r in results if isinstance(r, ActorError)),
                          results)
        self._resume(turn, result, isinstance(result, ActorError))

    def _resume(self, turn: _Turn, value: Any, throw: bool) -> None:
        if turn.epoch == self.epoch:  # else: its silo crashed meanwhile
            self._push((turn, value, throw))

    def _complete_turn(self, activation: AsyncioActivation, origin: Message,
                       result: Any) -> None:
        if self.dead:
            return  # the turn's crash escalated: fail() reset everything
        activation.open_turns -= 1
        self.open_turns -= 1
        if activation.busy:  # REENTRANT = False: next parked mail, if any
            if activation.mailbox:
                self._push((activation, activation.mailbox.popleft()))
            else:
                activation.busy = False
        backend = self.backend
        if origin.kind is MessageKind.CLIENT_REQUEST:
            backend._complete_client(origin, result)
        elif origin.kind is not MessageKind.ONEWAY:
            response = origin.make_response(
                result, size=origin.response_size, server_id=self.server_id)
            destination = origin.reply_to_server
            if destination == self.server_id:
                self.msgs_local += 1
                backend.msgs_local += 1
                self.resolve_response(response)
            else:
                self.msgs_remote += 1
                backend.msgs_remote += 1
                backend._transport_send(self, destination, response)

    # ------------------------------------------------------------------
    # Activation lifecycle
    # ------------------------------------------------------------------
    def host(self, actor_id: ActorId) -> AsyncioActivation:
        if actor_id in self.activations:
            raise ValueError(
                f"{actor_id} is already active on silo {self.server_id}")
        backend = self.backend
        cls = backend.actor_types[actor_id.actor_type]
        instance = cls()
        instance._bind(actor_id, self.server_id)
        state = backend.storage.get(actor_id)
        if state is not None:
            instance.restore_state(state)
        activation = AsyncioActivation(actor_id, instance)
        self.activations[actor_id] = activation
        instance.on_activate()
        return activation

    def deactivate_actor(self, actor_id: ActorId,
                         discard_state: bool = False) -> bool:
        """Deactivate a quiescent actor (persisting state). Returns False
        when the actor is not here or still has work in flight."""
        activation = self.activations.get(actor_id)
        if activation is None or not activation.idle:
            return False
        backend = self.backend
        activation.instance.on_deactivate()
        if discard_state:
            backend.storage.pop(actor_id, None)
            backend.discarded.add(actor_id)
        else:
            backend.storage[actor_id] = activation.instance.capture_state()
        del self.activations[actor_id]
        backend.directory.unregister(actor_id)
        return True

    # ------------------------------------------------------------------
    # Failure / membership
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash: volatile state lost, open turns gone, sockets closed.

        Actors hosted here re-activate elsewhere on their next call,
        restored from last persisted state — the §2 contract, same as
        the simulated silo.  Bumping ``epoch`` orphans every parked turn:
        no ``Sleep`` timer can resume one, even after ``restart()``."""
        if self.dead:
            return
        self.dead = True
        self.draining = False
        self.epoch += 1
        backend = self.backend
        for actor_id in self.activations:
            backend.directory.unregister(actor_id)
        self.activations.clear()
        self.ready.clear()
        self.pending.clear()
        self._disarm()
        self.queued = self.open_turns = 0
        self._close_transport()

    def restart(self) -> None:
        """Bring a failed silo back (empty, ready to host again)."""
        if not self.dead:
            return
        self.dead = False
        self.draining = False
        self.backend._reopen_transport(self)

    def _close_transport(self) -> None:
        for link in (*self.peers.values(), *self.inbound):
            link.close()
        if self.tcp_server is not None:
            self.tcp_server.close()
            self.tcp_server = None
        self.backend._ports.pop(self.server_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AsyncioSilo({self.server_id}, actors={len(self.activations)})"


class AsyncioBackend(Backend):
    """The real runtime: silos as callback turn machines on one loop.

    Args:
        config: the shared :class:`~repro.actor.runtime.ClusterConfig`;
            ``num_servers``, ``processors``, ``seed`` and ``time_scale``
            apply here (the modeled-cost knobs — serialization tables,
            network latency — are the simulator's and are ignored: real
            pickling and real sockets charge themselves).
        supervision: crash policy (default: restart with a budget of 3
            per 30 s, then escalate).
        transport: ``"inproc"`` (cross-silo hop = loop callback; the
            fast default for tests), ``"inproc-copy"`` (same hop, but
            every cross-silo message is pickle round-tripped first —
            TCP's copy semantics without the sockets, the validator for
            the XB portability rules), or ``"tcp"`` (every silo listens
            on 127.0.0.1 and cross-silo messages travel as
            length-prefixed pickle frames over real sockets).
        call_timeout: wall-clock seconds before an unanswered call or
            client request fails with
            :class:`~repro.actor.errors.CallTimeout`.
    """

    name = "asyncio"

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 supervision: Optional[SupervisionPolicy] = None,
                 transport: str = "inproc",
                 call_timeout: Optional[float] = DEFAULT_CALL_TIMEOUT):
        self.config = config or ClusterConfig()
        if self.config.num_servers < 1:
            raise ValueError("need at least one server")
        if transport not in _TRANSPORTS:
            raise BackendError(
                f"unknown transport {transport!r}; expected one of "
                f"{_TRANSPORTS}")
        self.transport = transport
        self.call_timeout = call_timeout
        self._loop = asyncio.new_event_loop()
        self._clock = WallClock(self._loop)
        self.rng_registry = RngRegistry(self.config.seed)
        self.directory = Directory(self.config.num_servers)
        self.placement: PlacementPolicy = RandomPlacement(self.rng_registry)
        self.actor_types: dict[str, type] = {}
        self.storage: dict[ActorId, dict[str, Any]] = {}
        self.discarded: set[ActorId] = set()
        self.obs = None  # observability attachment point (sim parity)
        self.supervisor = Supervisor(supervision)
        self.silos = [AsyncioSilo(self, i)
                      for i in range(self.config.num_servers)]
        self._gateway_rng = self.rng_registry.stream("client.gateway")
        self._ports: dict[int, int] = {}
        # call_id -> (t0, future, hook, timer) for external client calls.
        self._client_pending: dict[int, tuple] = {}
        self._started = False
        self._closed = False

        self.client_latency = LatencyRecorder(reservoir=200_000)
        self.call_latency = LatencyRecorder(reservoir=200_000)
        self.msgs_local = 0
        self.msgs_remote = 0
        self.requests_completed = 0
        self.requests_timed_out = 0
        self.late_responses = 0
        self.pickle_copy_failures = 0
        self.tcp_frames = 0           # frames written / messages in them:
        self.tcp_frame_messages = 0   # their ratio is the mean batch size
        self.turn_drains = 0          # ready-deque drains / turn segments
        self.turns_run = 0            # run in them: the mean ready batch
        self.failovers = 0
        self.migrations_total = 0
        self.actor_crashes = 0
        self.silos_added = 0
        self.silos_drained = 0

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def sim(self) -> Clock:
        """Runtime-facade alias: workload code schedules on ``rt.sim``."""
        return self._clock

    @property
    def rng(self) -> RngRegistry:
        return self.rng_registry

    @property
    def runtime(self) -> "AsyncioBackend":
        return self

    @property
    def num_servers(self) -> int:
        return self.config.num_servers

    @property
    def active_servers(self) -> int:
        return sum(1 for s in self.silos if not (s.dead or s.draining))

    def register_actor(self, actor_type: str, cls: type) -> None:
        if not issubclass(cls, Actor):
            raise TypeError(f"{cls!r} is not an Actor subclass")
        if actor_type in self.actor_types:
            raise ValueError(f"actor type {actor_type!r} already registered")
        self.actor_types[actor_type] = cls

    def ref(self, actor_type: str, key: Hashable) -> ActorRef:
        if actor_type not in self.actor_types:
            raise KeyError(f"unknown actor type {actor_type!r}")
        return ActorRef(actor_type, key)

    def spawn(self, ref: ActorRef, server: Optional[int] = None) -> int:
        location = self.locate(ref.id)
        if location is not None:
            return location
        if server is None:
            server = self.placement.choose(ref.id, 0, self.num_servers)
        destination = self.pick_live_server(server)
        self.activate(ref.id, destination)
        return destination

    def send(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256) -> None:
        gateway = self.silos[self.pick_live_server(
            self._gateway_rng.randrange(self.num_servers))]
        message = Message(
            kind=MessageKind.ONEWAY,
            target=ref.id,
            method=method,
            args=args,
            size=size,
            created_at=self._clock.now,
        )
        gateway.dispatch(message)

    def call(self, ref: ActorRef, method: str, *args: Any,
             size: int = 256, response_size: int = 256,
             on_complete: Optional[Callable[[float, Any], None]] = None,
             idempotent: bool = True) -> asyncio.Future:
        return self.client_request(
            ref, method, *args, size=size, response_size=response_size,
            on_complete=on_complete, idempotent=idempotent)

    # ------------------------------------------------------------------
    # Runtime facade: activation management
    # ------------------------------------------------------------------
    def activate(self, actor_id: ActorId, server: int) -> None:
        self.directory.register(actor_id, server)
        self.silos[server].host(actor_id)

    def locate(self, actor_id: ActorId) -> Optional[int]:
        return self.directory.lookup(actor_id)

    def deactivate(self, actor_id: ActorId, discard_state: bool = False) -> bool:
        location = self.directory.lookup(actor_id)
        if location is None:
            return False
        return self.silos[location].deactivate_actor(
            actor_id, discard_state=discard_state)

    def census(self) -> dict[int, int]:
        return self.directory.census()

    def pick_live_server(self, preferred: Optional[int] = None) -> int:
        if preferred is not None:
            silo = self.silos[preferred]
            if not (silo.dead or silo.draining):
                return preferred
        live = [s.server_id for s in self.silos if not (s.dead or s.draining)]
        if not live:
            raise RuntimeError("every silo in the cluster has failed")
        return live[self._gateway_rng.randrange(len(live))]

    def remote_message_fraction(self) -> float:
        total = self.msgs_local + self.msgs_remote
        return self.msgs_remote / total if total else 0.0

    @property
    def inflight_requests(self) -> int:
        return len(self._client_pending)

    # ------------------------------------------------------------------
    # Runtime facade: membership (fault plans / autoscale vocabulary)
    # ------------------------------------------------------------------
    def fail_silo(self, server: int) -> None:
        self.silos[server].fail()

    def restart_silo(self, server: int) -> None:
        self.silos[server].restart()

    def add_silo(self, server: Optional[int] = None) -> Optional[int]:
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
        return server

    def drain_silo(self, server: int, poll: float = 0.05,
                   on_complete: Optional[Callable[[int], None]] = None) -> bool:
        silo = self.silos[server]
        if silo.dead or silo.draining:
            return False
        others = [s for s in self.silos
                  if not (s.dead or s.draining) and s.server_id != server]
        if not others:
            raise RuntimeError("cannot drain the last live silo")
        silo.draining = True
        self._clock.schedule(poll, self._drain_poll, server, poll, on_complete)
        return True

    def _drain_poll(self, server: int, poll: float,
                    on_complete: Optional[Callable[[int], None]],
                    was_empty: bool = False) -> None:
        silo = self.silos[server]
        if silo.dead:
            if on_complete is not None:
                on_complete(server)
            return
        # Persist-and-evict every quiescent activation; the next call to
        # each re-places it on a live silo (its state followed it out).
        for actor_id in list(silo.activations):
            if silo.deactivate_actor(actor_id):
                self.migrations_total += 1
        # Empty is not yet gone: a request routed here just before the
        # last eviction may still be in flight, and only a live silo
        # forwards it.  Decommission after one further poll spent empty.
        empty = (not silo.activations and silo.idle
                 and not self.directory.count(server))
        if empty and was_empty:
            silo.dead = True
            silo.draining = False
            silo._close_transport()
            self.silos_drained += 1
            if on_complete is not None:
                on_complete(server)
            return
        self._clock.schedule(poll, self._drain_poll, server, poll,
                             on_complete, empty)

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
    ) -> asyncio.Future:
        """Issue one external request; returns a future for the result.

        Mirrors the simulator's signature (``on_complete(latency,
        result)``); additionally returns an ``asyncio.Future`` callers
        may await inside the loop or drain via :meth:`flush`.
        """
        # Pick the gateway before registering anything: with every silo
        # failed this raises, and nothing may be left pending behind it.
        gateway = self.silos[self.pick_live_server(
            self._gateway_rng.randrange(self.num_servers))]
        call_id = next_call_id()
        future = self._loop.create_future()
        timer = None
        if self.call_timeout is not None:
            timer = self._clock.schedule(
                self.call_timeout, self._client_timed_out,
                call_id, ref.id, method)
        self._client_pending[call_id] = (self._clock.now, future,
                                         on_complete, timer)
        message = Message(
            kind=MessageKind.CLIENT_REQUEST,
            target=ref.id,
            method=method,
            args=args,
            size=size,
            call_id=call_id,
            created_at=self._clock.now,
            response_size=response_size,
        )
        gateway.dispatch(message)
        return future

    def _complete_client(self, message: Message, result: Any) -> None:
        entry = self._client_pending.pop(message.call_id, None)
        if entry is None:
            self.late_responses += 1
            return
        t0, future, hook, timer = entry
        if timer is not None:
            timer.cancel()
        latency = self._clock.now - t0
        self.client_latency.record(latency)
        self.requests_completed += 1
        if not future.done():
            future.set_result(result)
        if hook is not None:
            hook(latency, result)

    def _client_timed_out(self, call_id: int, target: ActorId,
                          method: str) -> None:
        entry = self._client_pending.pop(call_id, None)
        if entry is None:
            return  # already resolved; stale timer
        t0, future, hook, _ = entry
        self.requests_timed_out += 1
        error = CallTimeout(target, method, self.call_timeout or 0.0)
        if not future.done():
            future.set_result(error)
        if hook is not None:
            hook(self._clock.now - t0, error)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _actor_crashed(self, silo: AsyncioSilo, activation: AsyncioActivation,
                       message: Message, error: BaseException) -> ActorCrashed:
        self.actor_crashes += 1
        decision = self.supervisor.decide(activation.actor_id, self._clock.now)
        if decision == "restart":
            self._restart_activation(silo, activation)
        elif decision == "stop":
            activation.stopped = True
        else:  # escalate: the failure is the silo's
            silo.fail()
        return ActorCrashed(activation.actor_id, message.method, error)

    def _restart_activation(self, silo: AsyncioSilo,
                            activation: AsyncioActivation) -> None:
        """Restart in place: fresh instance, last persisted state."""
        cls = type(activation.instance)
        instance = cls()
        instance._bind(activation.actor_id, silo.server_id)
        state = self.storage.get(activation.actor_id)
        if state is not None:
            instance.restore_state(state)
        activation.instance = instance
        activation.restarts += 1
        instance.on_activate()

    # ------------------------------------------------------------------
    # Payload probe (sanitizer)
    # ------------------------------------------------------------------
    def _probe_payload(self, activation: AsyncioActivation, generator,
                       args: tuple) -> None:
        """While a sanitizer is armed, inspect an outgoing payload for
        the dynamic cousins of the XB rules: an argument the sender's
        own state still references (shared inproc, copied over TCP —
        XB-ALIASED-MUTABLE) and arguments pickle rejects outright
        (XB-UNPICKLABLE-PAYLOAD).  Disarmed cost: one None check."""
        san = _sanitizer_current()
        if san is None or not args:
            return
        sender = type(activation.instance).__name__
        method = getattr(generator, "__name__", "<turn>")
        state = activation.instance.__dict__
        mutable_ids = {id(v) for v in state.values()
                       if isinstance(v, (list, dict, set, bytearray))}

        def aliases_state(obj: Any) -> bool:
            return id(obj) in mutable_ids

        for arg in args:
            hit = aliases_state(arg)
            if not hit and isinstance(arg, (list, tuple, set)):
                hit = any(aliases_state(e) for e in arg)
            elif not hit and isinstance(arg, dict):
                hit = any(aliases_state(v) for v in arg.values())
            if hit:
                san.record_payload_alias(
                    sender, method,
                    f"payload {type(arg).__name__} aliases sender state")
                break
        try:
            pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # noqa: BLE001 — pickle raises many types
            san.record_unpicklable_payload(sender, method, repr(err))

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _transport_send(self, silo: AsyncioSilo, destination: int,
                        message: Message) -> None:
        dest = self.silos[destination]
        if self.transport == "tcp":
            self._tcp_enqueue(silo, destination, message)
            return
        if self.transport == "inproc-copy":
            copied = self._copy_message(message)
            if copied is None:
                return  # unpicklable: lost, exactly as it would be on TCP
            message = copied
        # A cross-silo hop is always asynchronous — never runs the
        # receiver inside the sender's stack frame.
        self._loop.call_soon(dest.receive, message)

    def _copy_message(self, message: Message) -> Optional[Message]:
        """Pickle round-trip one cross-silo message: TCP's deep-copy
        semantics at the same boundary (and only there — local delivery
        stays by-reference on every transport), without the sockets.
        An unpicklable message is dropped, as TCP would lose it."""
        try:
            return pickle.loads(
                pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # noqa: BLE001 — pickle raises many types
            self.pickle_copy_failures += 1
            return None

    def _tcp_enqueue(self, silo: AsyncioSilo, destination: int,
                     message: Message) -> None:
        port = self._ports.get(destination)
        if port is None:
            return  # destination is down: dropped, like the sim
        link = silo.peers.get(destination)
        if link is None or link.port != port:
            if link is not None:
                link.close()  # the peer restarted on a new port
            link = silo.peers[destination] = _PeerLink(silo, destination, port)
            link.connect_task = self._loop.create_task(
                link.connect(), name=f"connect:{silo.server_id}->{destination}")
        link.send(message)

    def _encode_batch(self, batch: list[Message]) -> bytes:
        """Pickle one frame's worth of messages.  An unserializable
        message can never cross the wire: it alone is counted and dropped
        (its caller's timeout fires), the rest of the batch still goes."""
        try:
            payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — pickle raises many types
            batch = [m for m in batch if self._copy_message(m) is not None]
            payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        self.tcp_frames += 1
        self.tcp_frame_messages += len(batch)
        return payload

    async def _open_server(self, silo: AsyncioSilo) -> None:
        server = await self._loop.create_server(
            lambda: _PeerLink(silo), "127.0.0.1", 0)
        silo.tcp_server = server
        self._ports[silo.server_id] = server.sockets[0].getsockname()[1]

    def _reopen_transport(self, silo: AsyncioSilo) -> None:
        if self.transport != "tcp" or not self._started:
            return
        if self._loop.is_running():
            self._loop.create_task(self._open_server(silo))
        else:
            self._loop.run_until_complete(self._open_server(silo))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncioBackend":
        if self._started:
            return self
        self._started = True
        if self.transport == "tcp":
            async def _open_all() -> None:
                for silo in self.silos:
                    if not silo.dead:
                        await self._open_server(silo)
            self._loop.run_until_complete(_open_all())
        return self

    def run(self, until: Optional[float] = None) -> None:
        """Advance the wall clock to ``until`` (seconds since backend
        construction), or run to idle when ``until`` is None."""
        if not self._started:
            self.start()
        if until is None:
            self.run_until_idle()
            return
        remaining = until - self._clock.now
        if remaining > 0:
            self._loop.run_until_complete(asyncio.sleep(remaining))

    def run_until_idle(self, timeout: float = 30.0) -> bool:
        """Spin the loop until no client request is pending and every
        silo is quiescent (or ``timeout`` wall seconds pass).  Returns
        True when idleness was reached."""
        if not self._started:
            self.start()

        async def _idle() -> bool:
            deadline = self._loop.time() + timeout
            settled = 0
            while self._loop.time() < deadline:
                if (not self._client_pending
                        and all(s.idle or s.dead for s in self.silos)):
                    # Two consecutive idle observations: transport tasks
                    # (call_soon hops, tcp frames) get a chance to land.
                    settled += 1
                    if settled >= 2:
                        for silo in self.silos:
                            silo._disarm()
                        return True
                else:
                    settled = 0
                await asyncio.sleep(0.001)
            return False

        return self._loop.run_until_complete(_idle())

    def flush(self, timeout: float = 30.0) -> None:
        """Drive the loop until every currently-pending client request
        has resolved (completed or timed out)."""
        if not self._started:
            self.start()
        futures = [entry[1] for entry in self._client_pending.values()]
        if not futures:
            return
        self._loop.run_until_complete(
            asyncio.wait(futures, timeout=timeout))

    def shutdown(self) -> None:
        """Cancel every task, close every socket, close the loop."""
        if self._closed:
            return
        self._closed = True

        async def _close() -> None:
            tasks = [t for t in asyncio.all_tasks(self._loop)
                     if t is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            for silo in self.silos:
                silo._close_transport()
            # Aborted transports close their sockets on the next iteration.
            await asyncio.sleep(0)

        try:
            if not self._loop.is_closed():
                self._loop.run_until_complete(_close())
        finally:
            if not self._loop.is_closed():
                self._loop.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AsyncioBackend(servers={self.num_servers}, "
                f"transport={self.transport!r}, t={self._clock.now:.3f})")
