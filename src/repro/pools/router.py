"""Data-parallel actor pools: a router actor fronting N worker replicas.

Orleans actors are single-threaded by contract, so a hot stateless stage
(an inference step, an enrichment lookup) cannot be scaled by making one
actor faster — it is scaled *horizontally* by running N replicas keyed
``0..N-1`` and putting a :class:`RouterActor` in front.  The router is
itself an ordinary actor: requests arrive as messages, balancing state
(in-flight counts, reported loads, the policy object) is actor state,
and the whole ensemble migrates, fails, and rebalances under ActOp like
any other actors.

:class:`ActorPool` is the harness-side handle — it registers the types,
installs the routers, deploys the replicas, and runs the optional SEDA
load-report loop that feeds :class:`~repro.pools.policy.DpaPolicy` each
replica's host-silo worker-stage backpressure.
"""

from __future__ import annotations

from typing import Optional, Union

from ..actor.actor import Actor
from ..actor.calls import Call
from ..actor.errors import ActorError
from ..actor.ids import ActorRef
from .policy import BalancingPolicy, make_policy

__all__ = ["RouterActor", "ActorPool"]

METHOD = "handle"   # the worker method a route forwards to by default


class RouterActor(Actor):
    """Routes each request to one replica of a worker actor type.

    Configured once at install time (worker type name, replica count,
    policy); a re-activation from the persisted ``config`` (after its
    silo crashed, say) configures it afresh.  Every ``route`` turn
    charges the chosen replica's in-flight counter, forwards the payload,
    and releases the counter when the reply (or failure) comes back.
    ``REENTRANT`` stays True — many routed requests are in flight
    through the router's suspended turns at once, which is the entire
    point.
    """

    COMPUTE = {
        "route": 8e-6,         # policy evaluation + forward
        "configure": 5e-6,
        "report_load": 5e-6,
    }

    def __init__(self) -> None:
        super().__init__()
        self.config: Optional[tuple] = None   # configure()'s arguments
        self.worker_type: Optional[str] = None
        self.replicas: int = 0
        self.policy: Optional[BalancingPolicy] = None
        self.outstanding: list[int] = []
        self.loads: list[float] = []
        self.routed = 0

    # ------------------------------------------------------------------
    def configure(self, worker_type: str, replicas: int,
                  policy: Union[str, BalancingPolicy],
                  shard: int = 0, shards: int = 1) -> int:
        if replicas < 1:
            raise ActorError(f"pool needs >= 1 replica, got {replicas}")
        self.config = (worker_type, replicas, policy, shard, shards)
        self.worker_type = worker_type
        self.replicas = replicas
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.outstanding = [0] * replicas
        self.loads = [0.0] * replicas
        self.policy.bind(shard, shards)
        return replicas

    def on_activate(self) -> None:
        # Restored from the bare configuration its pool persisted at
        # install: size the counters and build the policy afresh.
        if self.policy is None and self.config is not None:
            self.configure(*self.config)

    def report_load(self, loads: tuple) -> None:
        """Last-writer-wins load signal per replica (SEDA backpressure of
        each replica's host silo, gathered by :class:`ActorPool`): one
        value per replica, as many as ``configure`` set up."""
        self.loads[:] = loads

    def route(self, payload, method: Optional[str] = None):
        if self.policy is None or self.worker_type is None:
            raise ActorError(f"router {self.id} is not configured")
        idx = self.policy.choose(self.outstanding, self.loads, self.replicas)
        self.outstanding[idx] += 1
        self.routed += 1
        try:
            result = yield Call(ActorRef(self.worker_type, idx),
                                method or METHOD, payload)
        finally:
            self.outstanding[idx] -= 1
        return result


class ActorPool:
    """Harness-side handle for one router + replica ensemble.

    ``ActorPool(runtime, "enrich", EnrichWorker, replicas=8)`` registers
    ``enrich.router`` / ``enrich.worker`` actor types, and ``start()``
    installs and configures the routers directly (state install, no
    configure/traffic message race).  Workloads then route through
    :meth:`shard_ref`.

    Routers are **sharded**: ``shards`` independent router activations
    are deployed round-robin across live silos, each with the full
    replica view.  A single router activation is a single-threaded actor
    — every request pays its turn (policy + serialization) serially, so
    one router caps the whole pool's throughput regardless of worker
    capacity.  Per-silo dispatcher shards are exactly how the DPA scheme
    scales its routing tier (arXiv:2308.00938); callers pick a shard by
    any stable key (:meth:`shard_ref`).

    ``report_period`` (seconds, workload time units) enables the DPA load
    feed: every period, each replica's host silo is sampled —
    **worker-stage occupancy** and **CPU run-queue pressure** — and the
    vector is sent to every router shard as a ``report_load`` message,
    steering routing away from saturated or slowed silos even before
    queueing shows up in a shard's own in-flight counts.  ``None``
    (default) runs no loop and sends nothing.
    """

    # Gain on the reported silo-contention signal, in in-flight-request
    # units.  Kept LOW on purpose: the report arrives up to a period
    # late, and a stale signal with high gain is a herd oscillator —
    # every shard steers to the "idle" silo at once, overshoots, and
    # flips when the next report lands.  At gain 1 the load term breaks
    # ties and flags genuinely slow/saturated silos without drowning the
    # fresh per-shard in-flight counts.
    LOAD_WEIGHT = 1.0

    def __init__(self, runtime, name: str, worker_cls, replicas: int, *,
                 policy: Union[str, BalancingPolicy] = "round_robin",
                 shards: int = 1,
                 report_period: Optional[float] = None):
        if replicas < 1:
            raise ValueError(f"pool {name!r} needs >= 1 replica")
        if shards < 1:
            raise ValueError(f"pool {name!r} needs >= 1 router shard")
        if shards > 1 and not isinstance(policy, str):
            raise ValueError(
                f"pool {name!r}: pass the policy by name when sharding "
                "(each shard needs its own policy instance)")
        self.runtime = runtime
        self.name = name
        self.worker_cls = worker_cls
        self.replicas = replicas
        self.policy = policy
        self.shards = shards
        self.report_period = report_period
        self.router_type = f"{name}.router"
        self.worker_type = f"{name}.worker"
        runtime.register_actor(self.router_type, RouterActor)
        runtime.register_actor(self.worker_type, worker_cls)
        self.router_refs = [ActorRef(self.router_type, r)
                            for r in range(shards)]
        self.router_ref = self.router_refs[0]
        self._started = False

    def shard_ref(self, key: int) -> ActorRef:
        """The router shard a caller with stable ``key`` should use."""
        return self.router_refs[key % self.shards]

    # ------------------------------------------------------------------
    def start(self) -> "ActorPool":
        """Install and configure the router shards (direct state install,
        like the Halo bootstrap: no message, so traffic may start at
        t=0), and pre-activate the worker replicas round-robin over live
        silos.

        A pool is a *deployment unit*: replicas are spread evenly by
        construction instead of falling through lazy first-message
        placement (which is per-actor random and can pile a pool's whole
        capacity onto few silos).  Deterministic — live silo ids in
        order, index modulo; no RNG draw.
        """
        if self._started:
            raise RuntimeError(f"pool {self.name!r} started twice")
        self._started = True
        rt = self.runtime
        live = [s.server_id for s in rt.silos if not s.dead]
        for r, ref in enumerate(self.router_refs):
            dest = live[r % len(live)]
            rt.activate(ref, dest)
            router = rt.silos[dest].activations[ref].instance
            router.configure(self.worker_type, self.replicas,
                             self.policy, shard=r, shards=self.shards)
            # Nothing else persists a router (it is installed, not sent
            # a message, and never idles out): a re-activation after its
            # silo crashed restores this and re-configures.
            rt.storage[ref] = {"config": router.config}
        for i in range(self.replicas):
            ref = ActorRef(self.worker_type, i)
            if rt.locate(ref) is None:
                rt.activate(ref, live[i % len(live)])
        if self.report_period is not None:
            rt.sim.schedule(self.report_period, self._report_tick)
        return self

    # ------------------------------------------------------------------
    def _report_tick(self) -> None:
        rt = self.runtime
        loads = []
        for i in range(self.replicas):
            ref = ActorRef(self.worker_type, i)
            location = rt.locate(ref)
            if location is None or rt.silos[location].dead:
                loads.append(0.0)
                continue
            # Host-silo contention only (``silo.load()``).  Deliberately
            # NOT the replica's mailbox depth: that echoes the routers'
            # own past choices half a period late, which is the classic
            # stale-signal herd oscillator (and the fresh per-shard
            # in-flight counts already cover it).
            loads.append(self.LOAD_WEIGHT * rt.silos[location].load())
        for ref in self.router_refs:
            rt.client_request(ref, "report_load", tuple(loads),
                              size=64, response_size=64)
        rt.sim.schedule(self.report_period, self._report_tick)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ActorPool({self.name!r}, replicas={self.replicas}, "
                f"shards={self.shards}, policy={self.policy!r})")
