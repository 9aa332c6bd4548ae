"""The asyncio backend end to end: supervision, faults, the turn
vocabulary, and the build_cluster error surface."""

import pytest

from repro import (
    ActorCrashed,
    ActorError,
    BackendError,
    ClusterConfig,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    SupervisionPolicy,
    build_cluster,
)
from repro.actor.actor import Actor
from repro.actor.calls import All, Call, Sleep, Tell
from repro.actor.ids import ActorRef
from repro.core import ActOpConfig
from repro.autoscale import AutoscaleConfig
from repro.sim import Simulator


class CounterActor(Actor):
    def __init__(self):
        super().__init__()
        self.count = 0

    def bump(self):
        self.count += 1
        return self.count

    def boom(self):
        raise RuntimeError("kaboom")


class ComboActor(Actor):
    """Exercises the full yield vocabulary on the real runtime."""

    def __init__(self):
        super().__init__()
        self.told = 0

    def note(self, n):
        self.told += n

    def combo(self):
        yield Sleep(0.01)
        yield Tell(ActorRef("combo", "peer"), "note", 5)
        first = yield Call(ActorRef("counter", 0), "bump")
        both = yield All([Call(ActorRef("counter", 0), "bump"),
                          Call(ActorRef("counter", 0), "bump")])
        return (first, both)


def _cluster(**kwargs):
    return build_cluster(ClusterConfig(num_servers=2, seed=3),
                         backend="asyncio", **kwargs)


def _call(backend, ref, method, *args):
    results = []
    backend.call(ref, method, *args,
                 on_complete=lambda _lat, res: results.append(res))
    backend.flush()
    return results[0]


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
def test_restart_after_crash():
    with _cluster() as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        ref = be.ref("counter", 0)
        be.spawn(ref, server=0)
        assert _call(be, ref, "bump") == 1
        assert _call(be, ref, "bump") == 2

        crash = _call(be, ref, "boom")
        assert isinstance(crash, ActorCrashed)
        assert crash.actor_id == ref.id
        assert isinstance(crash.cause, RuntimeError)
        assert be.supervisor.restarts == 1

        # Restarted in place, from scratch: nothing had been persisted,
        # so the volatile count is gone — the Orleans contract, same as
        # losing a silo.
        assert be.locate(ref.id) == 0
        assert _call(be, ref, "bump") == 1


def test_restart_restores_persisted_state():
    with _cluster() as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        ref = be.ref("counter", 0)
        be.spawn(ref, server=0)
        _call(be, ref, "bump")
        _call(be, ref, "bump")
        assert be.deactivate(ref.id)  # persists {count: 2}
        assert _call(be, ref, "bump") == 3  # reactivate restores
        crash = _call(be, ref, "boom")
        assert isinstance(crash, ActorCrashed)
        # The restart rolled back to the last *persisted* state.
        assert _call(be, ref, "bump") == 3


def test_stop_strategy_rejects_after_crash():
    with _cluster(supervision=SupervisionPolicy(strategy="stop")) as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        ref = be.ref("counter", 0)
        be.spawn(ref, server=0)
        assert isinstance(_call(be, ref, "boom"), ActorCrashed)
        refused = _call(be, ref, "bump")
        assert isinstance(refused, ActorError)
        assert "stopped" in str(refused)
        assert be.supervisor.stops == 1


def test_escalation_on_budget_exhaustion_fails_silo():
    policy = SupervisionPolicy(max_restarts=1, window=60.0,
                               on_exhaustion="escalate")
    with _cluster(supervision=policy, call_timeout=0.5) as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        ref = be.ref("counter", 0)
        be.spawn(ref, server=0)
        assert isinstance(_call(be, ref, "boom"), ActorCrashed)
        assert not be.silos[0].dead

        # Second crash blows the 1-restart budget: the silo goes down
        # with it, and the in-flight request can only time out.
        second = _call(be, ref, "boom")
        assert be.silos[0].dead
        assert be.supervisor.escalations == 1
        assert isinstance(second, ActorError)

        # The healing path: the next request re-places the actor on the
        # surviving silo, fresh.
        assert _call(be, ref, "bump") == 1
        assert be.locate(ref.id) == 1


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def test_crash_plan_runs_on_asyncio():
    plan = FaultPlan().crash(at=0.05, server=1)
    with _cluster(faults=plan, call_timeout=0.5) as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        ref = be.ref("counter", 0)
        be.spawn(ref, server=1)
        assert _call(be, ref, "bump") == 1
        cluster.run(until=0.1)  # wall-clock: the crash timer fires
        assert be.silos[1].dead
        assert cluster.injector.faults_started == 1
        # Re-placed on the survivor; volatile state died with the silo.
        assert _call(be, ref, "bump") == 1
        assert be.locate(ref.id) == 0


def test_network_fault_actions_are_rejected_at_build_time():
    plan = FaultPlan().degrade(at=1.0, until=2.0, drop=0.5)
    with pytest.raises(BackendError, match="LinkDegradation"):
        build_cluster(ClusterConfig(num_servers=2), backend="asyncio",
                      faults=plan)


# ----------------------------------------------------------------------
# Turn vocabulary
# ----------------------------------------------------------------------
def test_sleep_tell_call_all():
    with _cluster() as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        be.register_actor("combo", ComboActor)
        cluster.start()
        combo = be.ref("combo", "main")
        peer = be.ref("combo", "peer")
        be.spawn(combo, server=0)
        be.spawn(peer, server=1)
        be.spawn(be.ref("counter", 0), server=1)
        first, both = _call(be, combo, "combo")
        assert first == 1
        assert sorted(both) == [2, 3]
        cluster.run()  # drain the Tell
        told = be.silos[1].activations[peer.id].instance.told
        assert told == 5


# ----------------------------------------------------------------------
# TCP transport: one framed link per peer
# ----------------------------------------------------------------------
class BurstActor(Actor):
    """Sender and sink of Tell bursts; ``slow_echo``/``ask`` make a call
    whose response is still owed when the caller's silo dies."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def note(self, payload):
        self.seen.append(payload)

    def burst(self, sink_key, payloads, unpicklable=None):
        for payload in payloads:
            if payload == unpicklable:
                payload = lambda: None  # noqa: E731 — cannot cross a silo
            yield Tell(ActorRef("burst", sink_key), "note", payload)

    def slow_echo(self, n):
        yield Sleep(0.05)
        return n

    def ask(self, n):
        return (yield Call(ActorRef("burst", "slow"), "slow_echo", n))


def _burst_cluster(transport, **kwargs):
    cluster = _cluster(transport=transport, **kwargs)
    be = cluster.runtime
    be.register_actor("burst", BurstActor)
    cluster.start()
    return cluster, be


def _spawn(be, key, server):
    ref = be.ref("burst", key)
    be.spawn(ref, server=server)
    return ref


def _seen(be, ref):
    return be.silos[be.locate(ref.id)].activations[ref.id].instance.seen


def test_tcp_cold_peer_burst_arrives_in_order_on_one_connection():
    cluster, be = _burst_cluster("tcp")
    with cluster:
        source = _spawn(be, "source", 0)
        sink = _spawn(be, "sink", 1)
        _call(be, source, "burst", "sink", list(range(50)))
        assert be.run_until_idle()
        assert _seen(be, sink) == list(range(50))
        assert len(be.silos[1].inbound) == 1
        assert be.silos[0].peers[1].connect_task.done()


@pytest.mark.parametrize("transport", ["tcp", "inproc-copy"])
def test_unpicklable_message_is_dropped_alone(transport):
    cluster, be = _burst_cluster(transport)
    with cluster:
        source = _spawn(be, "source", 0)
        sink = _spawn(be, "sink", 1)
        _call(be, source, "burst", "sink", [0, 1, 2, 3, 4], 2)
        assert be.run_until_idle()
        assert _seen(be, sink) == [0, 1, 3, 4]
        assert be.pickle_copy_failures == 1


def test_tcp_fail_restart_reconnects_and_leaves_no_outbox():
    cluster, be = _burst_cluster("tcp", call_timeout=0.2)
    with cluster:
        _spawn(be, "slow", 0)
        asker = _spawn(be, "asker", 1)
        assert _call(be, asker, "ask", 1) == 1
        old_link = be.silos[0].peers[1]

        # Silo 1 dies while silo 0 still owes it a response: the response
        # is dropped (no port to send it to), not parked in an outbox.
        be.call(asker, "ask", 2)
        be.clock.schedule(0.01, be.fail_silo, 1)
        be.flush()
        assert be.run_until_idle()
        assert be.requests_timed_out == 1
        assert 1 not in be._ports and 1 not in be.silos[0].peers
        assert not be.silos[1].peers and not be.silos[1].inbound
        assert old_link.transport.is_closing()

        be.restart_silo(1)
        sink = _spawn(be, "sink", 1)
        source = _spawn(be, "source", 0)
        _call(be, source, "burst", "sink", [7, 8, 9])
        assert _call(be, _spawn(be, "asker2", 1), "ask", 3) == 3
        assert be.run_until_idle()
        assert _seen(be, sink) == [7, 8, 9]
        new_link = be.silos[0].peers[1]
        assert new_link is not old_link and new_link.port == be._ports[1]
        assert not any(link.outbox for silo in be.silos
                       for link in silo.peers.values())


# ----------------------------------------------------------------------
# build_cluster surface
# ----------------------------------------------------------------------
def test_unknown_backend_rejected():
    with pytest.raises(BackendError, match="unknown backend"):
        build_cluster(ClusterConfig(), backend="threads")


@pytest.mark.parametrize("kwargs", [
    {"actop": ActOpConfig()},
    {"autoscale": AutoscaleConfig()},
    {"sim": Simulator()},
])
def test_sim_only_layers_rejected_on_asyncio(kwargs):
    with pytest.raises(BackendError, match="simulator-only"):
        build_cluster(ClusterConfig(), backend="asyncio", **kwargs)


def test_unsupported_resilience_rejected_on_asyncio():
    resilience = ResilienceConfig(call_timeout=0.5,
                                  retry=RetryPolicy(max_attempts=3))
    with pytest.raises(BackendError, match="retry"):
        build_cluster(ClusterConfig(), backend="asyncio",
                      resilience=resilience)


def test_resilience_call_timeout_carries_to_asyncio():
    cluster = build_cluster(ClusterConfig(num_servers=2), backend="asyncio",
                            resilience=ResilienceConfig(call_timeout=1.5))
    with cluster:
        assert cluster.runtime.call_timeout == 1.5
        assert cluster.backend_name == "asyncio"


@pytest.mark.parametrize("kwargs", [
    {"supervision": SupervisionPolicy()},
    {"transport": "tcp"},
    {"call_timeout": 1.0},
])
def test_asyncio_only_knobs_rejected_on_sim(kwargs):
    with pytest.raises(BackendError, match="asyncio"):
        build_cluster(ClusterConfig(), backend="sim", **kwargs)


def test_unknown_transport_rejected():
    with pytest.raises(BackendError, match="transport"):
        build_cluster(ClusterConfig(), backend="asyncio", transport="quic")
