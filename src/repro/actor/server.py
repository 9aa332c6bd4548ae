"""The simulated silo: one Orleans-style server over SEDA stages.

The sim driver of :class:`~repro.actor.core.SiloCore`.  It runs the
paper's four SEDA stages (Fig. 2):

* **receiver** — deserializes inbound remote messages,
* **worker** — executes application logic (actor turns),
* **server_sender** — serializes actor-to-actor RPCs to other silos,
* **client_sender** — serializes responses going back to clients.

Message paths follow Fig. 3 exactly: a remote call pays
serialize -> network -> deserialize -> compute, while a local call pays a
deep copy and enqueues straight into the worker stage.  What the core
records — a turn started, a turn resumed, ``n`` bytes copied — is priced
here from the actor's ``COMPUTE`` / ``WAIT`` tables and the runtime's
:class:`~repro.actor.serialization.SerializationModel`.
"""

from __future__ import annotations

from ..seda.server import StagedServer
from ..sim.cpu import DISPATCH_OVERHEAD
from ..seda.stage import StageEvent
from .activation import Activation
from .actor import DEFAULT_COMPUTE
from .core import SiloCore
from .messages import Message, MessageKind

__all__ = ["Silo", "STAGE_NAMES"]

STAGE_NAMES = ("receiver", "worker", "server_sender", "client_sender")


class Silo(SiloCore):
    """One simulated server of the cluster."""

    def __init__(self, runtime, server_id: int):
        super().__init__(runtime, server_id)
        cfg = runtime.config
        self.server = StagedServer(
            self.sim,
            processors=cfg.processors,
            dispatch_overhead=DISPATCH_OVERHEAD * cfg.time_scale,
            name=f"silo{server_id}",
        )
        threads = cfg.processors   # Orleans: one thread per stage per core (§3)
        self.receiver = self.server.add_stage("receiver", threads)
        self.worker = self.server.add_stage("worker", threads, blocking=True)
        self.server_sender = self.server.add_stage("server_sender", threads)
        self.client_sender = self.server.add_stage("client_sender", threads)

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
            self.runtime.reject_client_request(message.call_id)
            return
        cost = self.runtime.serialization.deserialize_cost(message.size)
        self.receiver.submit(cost, self._route, message)

    # ------------------------------------------------------------------
    # Outbound paths
    # ------------------------------------------------------------------
    def _send_remote(self, message: Message, destination: int) -> None:
        cost = self.runtime.serialization.serialize_cost(message.size)
        self.server_sender.submit(cost, self._serialized, message,
                                  destination)

    def _serialized(self, event: StageEvent, message: Message, destination: int) -> None:
        if self.dead:
            return
        silo = self.runtime.silos[destination]
        self.runtime.network.deliver(message.size, silo.deliver, message,
                                     src=self.server_id, dst=destination)

    def _reply_to_client(self, response: Message) -> None:
        cost = self.runtime.serialization.serialize_cost(response.size)
        self.client_sender.submit(cost, self._client_response_ready,
                                  response)

    def _client_response_ready(self, event: StageEvent, response: Message) -> None:
        if self.dead:
            return
        self.runtime.network.deliver(
            response.size, self.runtime.complete_client_request, response,
            src=self.server_id,
        )

    # ------------------------------------------------------------------
    # Turn segments: the worker stage, with modeled compute and wait
    # ------------------------------------------------------------------
    def _pump(self, activation: Activation) -> None:
        if activation.segment_running or not activation.queue:
            return
        item = activation.next_eligible()
        if item is None:
            return
        activation.segment_running = True
        runtime = self.runtime
        continuation, value, _throw, copied = item
        compute = (runtime.serialization.copy_cost(copied)
                   if copied is not None else 0.0)
        if continuation is None:
            cls = type(activation.instance)
            scale = runtime.time_scale
            compute += cls.COMPUTE.get(value.method, DEFAULT_COMPUTE) * scale
            wait = cls.WAIT.get(value.method, 0.0) * scale
        else:
            compute += runtime.resume_compute
            wait = 0.0
        self.worker.submit(compute, self._segment_done, activation, item,
                           wait=wait)

    def _driver_idle(self) -> bool:
        for stage in self.server.stages.values():
            if stage.queue_length or stage.busy_threads:
                return False
        return True

    def load(self) -> float:
        # Host-silo contention only: worker-stage occupancy (queued +
        # running per thread) and the CPU run queue.  A replica behind a
        # saturated (or slowed) silo scores high even when its own
        # mailbox is empty — the turns it would run are stuck at the
        # stage and core level, not the actor level.
        worker = self.worker
        cpu = self.server.cpu
        return ((worker.queue_length + worker.busy_threads)
                / max(1, worker.threads)
                + cpu.run_queue_length / cpu.processors)
