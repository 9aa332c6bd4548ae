"""``AsyncioBackend``: the real runtime — the asyncio driver of the core.

The same ``repro.actor`` programs that run on the discrete-event
simulator run here over genuine concurrency.  Placement, dispatch, the
``Call`` / ``All`` / ``Tell`` / ``Sleep`` interpreter, migration, crash
and the client-request table are :mod:`repro.actor.core`'s — one
implementation for both engines; this module supplies what differs:

==========================  =============================================
core hook                   asyncio driver
==========================  =============================================
the clock                   ``WallClock``: ``loop.time()``, ``call_later/at``
``_pump`` (a turn segment   one ``ready`` deque per silo, listed for the
gets a processor)           backend's tick; a segment is a plain function
                            stepping the generator to its next yield
``_send_remote``            TCP frames written when the batch that queued
                            them ends (below), or in process a direct
                            ``deliver`` (which only queues work); real
                            ``pickle`` bytes on ``tcp`` / ``inproc-copy``
``_reply_to_client``        the response completes the request at once
``_ingress``                the gateway routes it, or ships it on
``_on_down``                clear ready, close the silo's sockets
``send_control``            ``loop.call_soon``
==========================  =============================================

Silos share one loop and one process (``transport="inproc"`` by default);
``transport="tcp"`` gives every silo a real listening socket on
127.0.0.1 and routes every cross-silo message through the network stack,
so a "remote" call pays genuine serialize → socket → deserialize.
``transport="inproc-copy"`` keeps the in-process hop but pickle
round-trips every cross-silo message — TCP's copy semantics without the
sockets: the reference the parity tests compare reference-sharing
delivery against.

The TCP wire form: a frame is a ``>I`` byte length followed by the
``pickle`` of a *list* of messages, and a ``Message`` pickles compactly
(a flat tuple of primitives, see :mod:`repro.actor.messages`).  Each
(silo, destination) pair has one :class:`_PeerLink` — one outbox, one
connection, at most one connect in flight — so messages between a pair
of silos are delivered in send order (per-pair FIFO; a link that dies
loses what it had queued).  Turns run in batches, and a batch writes
each outbox it filled as one frame when it ends: the backend's tick (one
``call_soon`` per loop iteration) runs every listed silo's ready batch,
and ``data_received`` runs the segments a read's messages made ready at
once, so a hop costs a read, not a read and a callback (a read lands in
its link's one reused buffer, ``_READ_SIZE``).  No task per
send, no coroutine per frame; a frame that will not unpickle is
counted in ``pickle_copy_failures`` and skipped, not fatal to the link;
after ``pause_writing`` the outbox waits for ``resume_writing``.

Supervision (:mod:`repro.backend.supervision`) is the core's; what
differs here is the default: with no policy given the simulator raises
an exception escaping a turn (a bug in the model), the real runtime
restarts the actor — application code throws for real.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Optional

from ..actor.activation import Activation
from ..actor.core import ClusterCore, SiloCore
from ..actor.messages import Message
from ..actor.runtime import ClusterConfig
from ..faults.resilience import ResilienceConfig
from .base import BackendError
from .supervision import Supervisor

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

    Speaks the simulator's ``now``/``schedule``/``defer``/``at``
    vocabulary, so timer-based code (fault plans, report loops, deadline
    tables) runs against either engine.
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

    def at(self, time: float, fn: Callable[..., Any], *args: Any):
        return self._loop.call_at(self._t0 + time, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WallClock(now={self.now:.3f})"


def _parse_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Cut every complete frame off the head of ``buffer``; return their
    payloads in order and the partial tail still to be completed."""
    payloads = []
    start, end = 0, len(buffer)
    while end - start >= _FRAME_HEADER.size:
        (length,) = _FRAME_HEADER.unpack_from(buffer, start)
        stop = start + _FRAME_HEADER.size + length
        if stop > end:
            break
        payloads.append(buffer[start + _FRAME_HEADER.size:stop])
        start = stop
    return payloads, buffer[start:]


# What one socket read fills: a buffer per link, made on its first read
# and reused by every read after it (``asyncio.BufferedProtocol``).  A
# plain Protocol's transport allocates a 256 KiB bytes object per read;
# freeing it could shrink the C heap and the next read grow it again,
# so whether a read cost page faults depended on the heap layout left
# by what the process had imported (2.7 or 5.0 minor faults per TCP
# ping, ~30% of its throughput).  Frames here are a few hundred bytes;
# a longer one takes more reads.
_READ_SIZE = 16 * 1024


class _PeerLink(asyncio.BufferedProtocol):
    """One end of one silo-to-silo TCP connection (they are one-way).

    Outbound (``destination`` set): ``send`` appends to ``outbox``; the
    end of the batch (or of the tick a send outside one arms) writes it
    as one frame, so messages to one peer leave in send order on one
    connection — the per-pair FIFO guarantee.  While the connect is in
    flight or writing is paused, messages wait in the outbox;
    ``connection_made``/``resume_writing`` flush them.  Inbound: each
    ``data_received`` is a batch that delivers every message of every
    complete frame to ``silo`` and runs the segments they made ready.
    """

    def __init__(self, silo: "AsyncioSilo", destination: Optional[int] = None,
                 port: Optional[int] = None):
        self.silo = silo
        self.loop = silo.runtime._loop
        self.destination = destination
        self.port = port
        self.transport: Optional[asyncio.Transport] = None
        self.connect_task: Optional[asyncio.Task] = None
        self.outbox: list[Message] = []
        self.writable = False     # connected and not paused by flow control
        self.buffer = b""
        self.inbox: Optional[memoryview] = None

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
        # A non-empty outbox is listed, or waits for resume_writing.
        if not self.outbox:
            self.silo.runtime._links.append(self)
            self.silo.runtime._arm()
        self.outbox.append(message)

    def flush(self) -> None:
        if not (self.writable and self.outbox):
            return
        batch, self.outbox = self.outbox, []
        payload = self.silo.runtime._encode_batch(batch)
        self.transport.write(_FRAME_HEADER.pack(len(payload)) + payload)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self.inbox is None:
            self.inbox = memoryview(bytearray(_READ_SIZE))
        return self.inbox

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.inbox[:nbytes].tobytes())

    def data_received(self, data: bytes) -> None:
        payloads, self.buffer = _parse_frames(self.buffer + data)
        if not payloads:
            return  # no complete frame: nothing runs, nothing is written
        silo = self.silo
        runtime = silo.runtime
        # While the batch is open, sends only list links, pumps only queue.
        ticking, runtime._ticking = runtime._ticking, True
        listed, silo.armed = silo.armed, True
        try:
            deliver = silo.deliver
            for payload in payloads:
                try:
                    batch = pickle.loads(payload)
                except Exception:  # noqa: BLE001 — pickle raises many types
                    # A frame that will not decode is lost and counted;
                    # the link and the frames behind it carry on.
                    runtime.pickle_copy_failures += 1
                    continue
                for message in batch:
                    deliver(message)
            silo._drain()
        except Exception as error:  # noqa: BLE001 — raised, it kills the link
            self.loop.call_exception_handler(
                {"message": "receive batch failed", "exception": error})
        finally:
            if not listed:  # what the batch's turns made ready: next tick
                if silo.ready:
                    runtime._silos.append(silo)
                else:
                    silo.armed = False
            runtime._write()
            runtime._ticking = ticking
            if runtime._silos:
                runtime._arm()

    def close(self) -> None:
        self.connection_lost(None)  # drop and deregister now, not a tick later
        if self.connect_task is not None:
            self.connect_task.cancel()
        if self.transport is not None:
            self.transport.abort()


class AsyncioSilo(SiloCore):
    """One silo: a ready deque for turn segments, an optional TCP port."""

    def __init__(self, runtime: "AsyncioBackend", server_id: int):
        super().__init__(runtime, server_id)
        # (activation, work item) segments that have their processor;
        # armed: listed for the tick, or in a receive batch of its own.
        self.ready: deque[tuple] = deque()
        self.armed = False
        # destination silo -> outbound link (its outbox + connection);
        # and the links this silo's server accepted.
        self.peers: dict[int, _PeerLink] = {}
        self.inbound: set[_PeerLink] = set()
        self.tcp_server: Optional[asyncio.AbstractServer] = None
        san = runtime._san
        if san is not None:  # armed before the cluster was built
            san.hook(self)

    # ------------------------------------------------------------------
    # Turn segments: ready deque -> _segment_done
    # ------------------------------------------------------------------
    def _pump(self, activation: Activation) -> None:
        item = activation.next_eligible()
        if item is None:
            return
        activation.segment_running = True
        self.ready.append((activation, item))
        if not self.armed:
            self.armed = True
            self.runtime._silos.append(self)
            self.runtime._arm()

    def _drain(self) -> None:
        """Run what was ready on entry; later arrivals wait for the next
        tick, so sockets and timers are polled between batches and no
        turn runs inside its sender's stack frame."""
        ready = self.ready
        batch = len(ready)
        if batch:
            self.runtime.turn_drains += 1
            self.runtime.turns_run += batch
        while batch and ready:  # fail() mid-batch empties ``ready``
            batch -= 1
            self._segment_done(None, *ready.popleft())

    # ------------------------------------------------------------------
    # Messages in and out
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """A message arrives off the transport."""
        self._route(None, message)

    def _send_remote(self, message: Message, destination: int) -> None:
        if self.dead:
            return  # dropped on the floor; callers' timeouts handle it
        runtime = self.runtime
        if runtime.transport == "tcp":
            runtime._tcp_enqueue(self, destination, message)
            return
        if runtime.transport == "inproc-copy":
            message = runtime._copy_message(message)
            if message is None:
                return  # unpicklable: lost, exactly as it would be on TCP
        # In process the hop is a call: taking a message in only queues
        # work on the destination's ready deque, so no turn ever runs
        # inside its sender's stack frame.
        runtime.silos[destination].deliver(message)

    def _reply_to_client(self, response: Message) -> None:
        if not self.dead:
            self.runtime.complete_client_request(response)

    # ------------------------------------------------------------------
    # Membership, idleness, load
    # ------------------------------------------------------------------
    def _on_down(self) -> None:
        self.ready.clear()
        self._close_transport()

    def _on_up(self) -> None:
        self.runtime._reopen_transport(self)

    def _close_transport(self) -> None:
        for link in (*self.peers.values(), *self.inbound):
            link.close()
        if self.tcp_server is not None:
            self.tcp_server.close()
            self.tcp_server = None
        self.runtime._ports.pop(self.server_id, None)

    def _driver_idle(self) -> bool:
        return (not self.ready
                and not any(link.outbox for link in self.peers.values()))

    def load(self) -> float:
        # The analogue of stage occupancy + CPU run queue: segments
        # waiting for the loop and turns parked on calls, per processor.
        return ((len(self.ready) + len(self._pending))
                / self.runtime.config.processors)


class AsyncioBackend(ClusterCore):
    """The real runtime: silos as callback turn machines on one loop.

    Args:
        config: the shared :class:`~repro.actor.runtime.ClusterConfig`;
            ``num_servers``, ``processors``, ``seed``, ``time_scale`` and
            the idle-collection knobs apply here (the simulator's cost
            model — serialization tables, network latency — does not:
            real pickling and real sockets charge themselves).
        resilience: retry / deadline / admission-capacity policies;
            ``call_timeout`` (wall-clock seconds before an unanswered
            call or client-request attempt fails with
            :class:`~repro.actor.errors.CallTimeout`) defaults to
            :data:`DEFAULT_CALL_TIMEOUT` rather than to "never".
        supervisor: decides what a crashed turn means (default: restart
            with a budget of 3 per 30 s, then escalate).
        transport: ``"inproc"`` (cross-silo hop = a call that queues the
            message at its destination; the fast default for tests),
            ``"inproc-copy"`` (same hop, but every cross-silo message
            is pickle round-tripped first — TCP's copy semantics without
            the sockets), or ``"tcp"`` (every silo listens on 127.0.0.1
            and cross-silo messages travel as length-prefixed pickle
            frames over real sockets).
    """

    name = "asyncio"

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 resilience: Optional[ResilienceConfig] = None,
                 supervisor: Optional[Supervisor] = None,
                 transport: str = "inproc"):
        if transport not in _TRANSPORTS:
            raise BackendError(
                f"unknown transport {transport!r}; expected one of "
                f"{_TRANSPORTS}")
        self.transport = transport
        self._loop = asyncio.new_event_loop()
        resilience = resilience or ResilienceConfig()
        if resilience.call_timeout is None:
            resilience = replace(resilience,
                                 call_timeout=DEFAULT_CALL_TIMEOUT)
        try:
            super().__init__(config or ClusterConfig(), WallClock(self._loop),
                             resilience, supervisor or Supervisor())
        except ValueError:   # a rejected config: release the loop
            self._loop.close()
            raise
        # The tick's lists: silos with ready segments, links with output.
        self._silos: list[AsyncioSilo] = []
        self._links: list[_PeerLink] = []
        self._ticking = False   # a tick is armed, or a batch is open
        self.silos = [AsyncioSilo(self, i)
                      for i in range(self.config.num_servers)]
        self._ports: dict[int, int] = {}
        self._started = False
        self._closed = False

        self.pickle_copy_failures = 0
        self.tcp_frames = 0           # frames written / messages in them:
        self.tcp_frame_messages = 0   # their ratio is the mean batch size
        self.turn_drains = 0          # ready-deque drains / turn segments
        self.turns_run = 0            # run in them: the mean ready batch

    # ------------------------------------------------------------------
    # Driver hooks: client ingress and the control-plane hop
    # ------------------------------------------------------------------
    def _ingress(self, gateway: AsyncioSilo, destination: int,
                 message: Message) -> None:
        if destination == gateway.server_id:
            gateway._route(None, message)
        else:
            gateway._send_remote(message, destination)

    def send_control(self, size: int, callback: Callable[..., Any],
                     *args: Any) -> None:
        # Agents are objects of this process: the hop is a loop callback
        # on every transport, never run inside the sender's frame.
        self._loop.call_soon(callback, *args)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
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

    def _tick(self) -> None:
        """Run each listed silo's ready batch, then write each outbox."""
        silos, self._silos = self._silos, []
        try:
            for silo in silos:
                silo._drain()
        finally:
            for silo in silos:  # re-list what a drain left
                if silo.ready:
                    self._silos.append(silo)
                else:
                    silo.armed = False
            self._write()
            self._ticking = False
            if self._silos:
                self._arm()

    def _arm(self) -> None:
        if not self._ticking:
            self._ticking = True
            self._loop.call_soon(self._tick)

    def _write(self) -> None:
        links, self._links = self._links, []
        for link in links:
            link.flush()

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
        remaining = until - self.sim.now
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
                if (not self._open
                        and all(s.idle or s.dead for s in self.silos)):
                    # Two consecutive idle observations: tcp frames and
                    # armed drains get a chance to land.
                    settled += 1
                    if settled >= 2:  # what the tables hold was answered
                        for table in (self._deadlines,
                                      *(s._deadlines for s in self.silos)):
                            table.clear()
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
        waiting = set(self._open)

        async def _resolved() -> None:
            deadline = self._loop.time() + timeout
            # One loop iteration per look: a request is seen resolved in
            # the iteration that resolved it, not a poll interval later.
            while (not waiting.isdisjoint(self._open)
                   and self._loop.time() < deadline):
                await asyncio.sleep(0)

        self._loop.run_until_complete(_resolved())

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
