"""The asyncio backend end to end: supervision (on both drivers),
faults, the turn vocabulary, and the build_cluster layer x driver
matrix."""

import os
import subprocess
import sys
from typing import Callable

import pytest

import repro
from repro import (
    ActorCrashed,
    ActorError,
    AdmissionConfig,
    BackendError,
    ClusterConfig,
    FaultPlan,
    PartitioningConfig,
    ResilienceConfig,
    RetryPolicy,
    SupervisionPolicy,
    build_cluster,
)
from repro.actor.actor import Actor
from repro.actor.calls import All, Call, Sleep, Tell
from repro.actor.ids import ActorRef
from repro.core import ActOpConfig, ThreadControllerConfig
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


def _cluster(call_timeout=None, **kwargs):
    kwargs.setdefault("backend", "asyncio")
    if call_timeout is not None:
        kwargs["resilience"] = ResilienceConfig(call_timeout=call_timeout)
    return build_cluster(ClusterConfig(num_servers=2, seed=3), **kwargs)


def _instance(be, ref):
    return be.silos[be.locate(ref.id)].activations[ref.id].instance


def _call(backend, ref, method, *args):
    results = []
    backend.client_request(ref, method, *args,
                           on_complete=lambda _lat, res: results.append(res))
    # Until that request resolved: asyncio's flush, or the simulator's
    # event queue run dry.
    getattr(backend, "flush", backend.run)()
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


def _restart_restores_persisted_state(backend):
    with _cluster(backend=backend,
                  supervision=SupervisionPolicy()) as cluster:
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


def _stop_strategy_rejects_after_crash(backend):
    with _cluster(backend=backend,
                  supervision=SupervisionPolicy(strategy="stop")) as cluster:
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


def _escalation_on_budget_exhaustion_fails_silo(backend):
    policy = SupervisionPolicy(max_restarts=1, window=60.0,
                               on_exhaustion="escalate")
    with _cluster(backend=backend, supervision=policy,
                  call_timeout=0.5) as cluster:
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
        assert be.actor_crashes == 2 and be.inflight_requests == 0


def test_restart_restores_persisted_state():
    _restart_restores_persisted_state("asyncio")


def test_stop_strategy_rejects_after_crash():
    _stop_strategy_rejects_after_crash("asyncio")


def test_escalation_on_budget_exhaustion_fails_silo():
    _escalation_on_budget_exhaustion_fails_silo("asyncio")


@pytest.mark.parametrize("verdict", [
    _restart_restores_persisted_state,
    _stop_strategy_rejects_after_crash,
    _escalation_on_budget_exhaustion_fails_silo,
], ids=["restart", "stop", "escalate"])
def test_supervision_verdicts_on_the_simulator(verdict):
    # The verdict is SiloCore._crash_turn's, so virtual time runs the
    # same three cases; what differs is only that the simulator has no
    # default policy (test_unknown_method_on_the_sim_raises_out_of_run).
    verdict("sim")


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


def test_request_against_a_fully_failed_cluster_leaves_nothing_pending():
    with _cluster(call_timeout=0.2) as cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        be.fail_silo(0)
        be.fail_silo(1)
        outcomes = []
        with pytest.raises(RuntimeError, match="every silo"):
            be.client_request(be.ref("counter", 0), "bump",
                              on_complete=lambda _lat, res: outcomes.append(res))
        # The raise is the whole outcome: no pending entry to hold the
        # cluster busy, no timer reporting a CallTimeout for a request
        # that was never issued.
        assert be.inflight_requests == 0
        assert be.run_until_idle(timeout=0.1)
        cluster.run(until=0.3)  # past call_timeout
        assert outcomes == [] and be.requests_timed_out == 0


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
# The turn machine: ready deque, parked turns, deadline heap, epochs
# ----------------------------------------------------------------------
class TurnActor(Actor):
    """Callee and caller for the turn-machine tests.  ``log`` records
    turn starts/ends; ``WOKE`` outlives the instance (a crashed silo
    takes the instance with it)."""

    WOKE: list = []

    def __init__(self):
        super().__init__()
        self.log = []

    def echo_after(self, delay, n):
        yield Sleep(delay)
        return n

    def work(self, n):
        self.log.append(("start", n))
        yield Call(ActorRef("turn", "gate"), "echo_after", 0.01, n)
        self.log.append(("end", n))

    def fan(self, target_type, count):
        for n in range(count):
            yield Tell(ActorRef(target_type, "worker"), "work", n)

    def join(self, straggler_delay):
        try:
            yield All([
                Call(ActorRef("counter", 0), "bump"),
                Call(ActorRef("turn", "gate"), "echo_after",
                     straggler_delay, 7, timeout=0.05),
                Call(ActorRef("counter", 0), "bump"),
            ])
        except ActorError as error:
            self.log.append(error)
            return "timed out"
        finally:
            self.log.append("resumed")
        return "joined"

    def nap(self, delay):
        yield Sleep(delay)
        TurnActor.WOKE.append(self.key)

    def hammer(self, calls):
        for _ in range(calls):
            yield Call(ActorRef("counter", 0), "bump")
        return calls

    def bad_yield(self):
        yield "not a call"


class SerialTurnActor(TurnActor):
    REENTRANT = False


def _turn_cluster(**kwargs):
    cluster = _cluster(**kwargs)
    be = cluster.runtime
    be.register_actor("turn", TurnActor)
    be.register_actor("serial", SerialTurnActor)
    be.register_actor("counter", CounterActor)
    cluster.start()
    return cluster, be


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
@pytest.mark.parametrize("actor_type, interleaved", [("serial", False),
                                                     ("turn", True)])
def test_non_reentrant_turns_run_one_at_a_time_in_arrival_order(
        actor_type, interleaved, backend):
    # Both engines share one turn interpreter (SiloCore._advance_turn), so
    # a yield suspends the turn on the simulator exactly as on asyncio:
    # reentrant turns interleave on both, REENTRANT = False serialises
    # both.  The simulator's network jitter may reorder the five Tells in
    # flight, so the shape is asserted, not the arrival order.
    cluster, be = _turn_cluster(backend=backend)
    with cluster:
        be.spawn(be.ref("turn", "gate"), server=0)
        driver = be.ref("turn", "driver")
        be.spawn(driver, server=0)
        worker = be.ref(actor_type, "worker")
        be.spawn(worker, server=1)
        be.client_request(driver, "fan", actor_type, 5)
        cluster.run()
        log = _instance(be, worker).log
        order = [n for kind, n in log if kind == "start"]
        assert sorted(order) == list(range(5))
        # Every turn starts before it ends.
        for n in range(5):
            assert log.index(("start", n)) < log.index(("end", n))
        if interleaved:
            # Every turn opened before the first (10 ms) call returned.
            assert [kind for kind, _ in log] == ["start"] * 5 + ["end"] * 5
        else:
            # The first turn is parked on its Call while four more
            # messages arrive: none starts until the one before ended.
            assert log == [(kind, n) for n in order
                           for kind in ("start", "end")]
        assert be.silos[1].activations[worker.id].quiescent
        assert be.silos[1].idle and be.silos[1].load() == 0.0


def test_all_with_a_timed_out_slot_throws_once_and_ignores_the_straggler():
    cluster, be = _turn_cluster()
    with cluster:
        be.spawn(be.ref("turn", "gate"), server=1)
        be.spawn(be.ref("counter", 0), server=1)
        be.spawn(be.ref("turn", "joiner"), server=0)
        joiner = be.ref("turn", "joiner")
        assert _call(be, joiner, "join", 0.15) == "timed out"
        log = _instance(be, joiner).log
        assert len(log) == 2 and log[1] == "resumed"
        assert isinstance(log[0], ActorError) and "echo_after" in str(log[0])
        assert be.late_responses == 0
        # The straggler answers 100 ms after its slot timed out: counted,
        # and the finished turn is not resumed a second time.
        assert be.run_until_idle()
        assert be.late_responses == 1
        assert _instance(be, joiner).log == log
        assert _instance(be, be.ref("counter", 0)).count == 2
        # No straggler: the same All joins in call order.
        assert _call(be, joiner, "join", 0.0) == "joined"


def test_sleeping_turn_of_a_failed_then_restarted_silo_never_resumes():
    TurnActor.WOKE.clear()
    cluster, be = _turn_cluster()
    with cluster:
        be.spawn(be.ref("turn", "old"), server=0)
        be.send(be.ref("turn", "old"), "nap", 0.05)
        cluster.run(until=be.sim.now + 0.01)
        old = be.silos[0].activations[be.ref("turn", "old").id]
        assert old.open_turns == 1 and not be.silos[0].idle
        be.fail_silo(0)
        be.restart_silo(0)
        assert not be.silos[0].activations and be.silos[0].idle
        # A turn started after the restart sleeps and wakes as usual;
        # the old one's timer finds its pending entry gone and is dropped.
        be.spawn(be.ref("turn", "new"), server=0)
        be.send(be.ref("turn", "new"), "nap", 0.02)
        cluster.run(until=be.sim.now + 0.08)
        assert be.run_until_idle()
        assert TurnActor.WOKE == ["new"]
        assert old.open_turns == 1  # never resumed, never completed
        assert all(s.idle for s in be.silos)


def test_deadline_heap_stays_compact_and_disarms_when_idle():
    # One deadline table per silo (and one for client requests), the
    # same code on both drivers.  A simulated round trip takes ~2 ms, so
    # the simulator runs fewer calls, all answered within the timeout.
    for backend, calls in (("sim", 1_000), ("asyncio", 10_000)):
        cluster, be = _turn_cluster(backend=backend, call_timeout=5.0)
        with cluster:
            be.spawn(be.ref("counter", 0), server=1)
            hammer = be.ref("turn", "hammer")
            be.spawn(hammer, server=0)
            silo = be.silos[0]
            table = silo._deadlines
            worst = []

            def sample():
                worst.append(len(table.heap) - 2 * len(silo._pending))
                if be.inflight_requests:
                    be.sim.schedule(0.002, sample)

            be.sim.schedule(0.002, sample)
            assert _call(be, hammer, "hammer", calls) == calls
            # Answered calls under a 5 s timeout: none of their
            # deadlines came due while they ran, yet the heap never held
            # more than the pending calls twice over plus the slack.
            assert be.call_timeout == 5.0 and len(worst) > 10, backend
            assert 0 < max(worst) <= 65, backend  # compaction did run
            if backend == "asyncio":
                assert len(table.heap) <= 2 * len(silo._pending) + 65
                assert be.run_until_idle()
                assert be.turns_run >= 2 * calls
                assert 0 < be.turn_drains <= be.turns_run
            # The simulator ran on to the last deadline, which found
            # every entry answered; asyncio's run_until_idle cleared them.
            for t in (be._deadlines, *(s._deadlines for s in be.silos)):
                assert not t.heap and t.timer is None, backend
            assert all(s.idle for s in be.silos)


def test_plain_unknown_and_misyielding_methods():
    cluster, be = _turn_cluster()
    with cluster:
        ref = be.ref("turn", "plain")
        be.spawn(ref, server=0)
        assert _call(be, be.ref("counter", 0), "bump") == 1  # not a generator
        missing = _call(be, ref, "no_such_method")
        assert isinstance(missing, ActorError)
        assert not isinstance(missing, ActorCrashed)
        assert "has no method 'no_such_method'" in str(missing)
        crash = _call(be, ref, "bad_yield")         # yields a non-Call
        assert isinstance(crash, ActorCrashed)
        assert isinstance(crash.cause, TypeError)
        assert be.supervisor.restarts == 1
        assert be.run_until_idle()
        assert _instance(be, ref).id == ref.id  # restarted in place
        assert be.silos[0].activations[ref.id].quiescent


def test_unknown_method_on_the_sim_raises_out_of_run():
    # The simulator has no default supervisor: a request naming a method
    # the actor lacks (what the retired static unknown-method rule looked
    # for) is a crashed turn, and with no policy the core re-raises
    # crashes — the run stops with the AttributeError instead of
    # answering the caller with an ActorError as asyncio does above.
    cluster, be = _turn_cluster(backend="sim")
    with cluster:
        ref = be.ref("turn", "plain")
        be.spawn(ref, server=0)
        results = []
        be.client_request(ref, "no_such_method",
                          on_complete=lambda _lat, res: results.append(res))
        with pytest.raises(AttributeError, match="no_such_method"):
            cluster.run()
        assert results == []


# ----------------------------------------------------------------------
# Migration: a request routed by a stale directory entry completes once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_migration_forwards_requests_routed_just_before_the_eviction(
        transport):
    cluster = _cluster(transport=transport, call_timeout=0.5)
    with cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        cluster.start()
        refs = [be.ref("counter", i) for i in range(5)]
        for ref in refs:
            be.spawn(ref, server=0)
        results = []
        # The directory says "silo 0" for every target when these are
        # issued; the migrations that follow evict the idle ones at once,
        # before the requests still on the wire (tcp, through the other
        # silo's gateway) have landed.
        for ref in refs:
            be.client_request(
                ref, "bump", on_complete=lambda _l, r: results.append(r))
        for ref in refs:
            be.silos[0].migrate(ref.id, 1)
        be.flush()
        assert be.run_until_idle()
        assert results == [1] * 5
        assert be.requests_completed == 5 and be.requests_timed_out == 0
        for ref in refs:  # persisted: at eviction, or now on the survivor
            assert be.locate(ref.id) in (None, 1)
            assert be.locate(ref.id) is None or be.deactivate(ref.id)
        assert sum(be.storage[ref.id]["count"] for ref in refs) == 5


class RelayActor(Actor):
    def relay(self, target):
        yield Tell(target, "bump")
        return (yield Call(target, "bump"))


def test_inproc_tell_landing_after_the_eviction_is_forwarded():
    """In process a hop is a call, so the case above queues every request
    at the activation before ``migrate()`` runs.  Here the eviction wins
    the race: silo 0 evicts the idle counter just as a ``Tell`` routed
    to it there arrives, and must forward that ``Tell``, not drop it.
    The relay's ``Call`` that follows then reads the Tell's bump."""
    cluster = _cluster(transport="inproc", call_timeout=0.5)
    with cluster:
        be = cluster.runtime
        be.register_actor("counter", CounterActor)
        be.register_actor("relay", RelayActor)
        cluster.start()
        counter, relay = be.ref("counter", 0), be.ref("relay", 0)
        be.spawn(counter, server=0)
        be.spawn(relay, server=1)
        silo0 = be.silos[0]
        deliver = silo0.deliver

        def evict_then_deliver(message):
            if message.target == counter:
                assert silo0.migrate(counter.id, 1)   # leaves at once
                assert be.locate(counter.id) is None
            deliver(message)

        silo0.deliver = evict_then_deliver
        assert _call(be, relay, "relay", counter) == 2
        assert be.locate(counter.id) == 1
        assert be.requests_completed == 1 and be.requests_timed_out == 0


# ----------------------------------------------------------------------
# TCP transport: one framed link per peer
# ----------------------------------------------------------------------
class Weird(Exception):
    """Pickles, but will not unpickle: ``args`` holds one string and
    ``__init__`` wants two."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class BurstActor(Actor):
    """Sender and sink of Tell bursts; ``slow_echo``/``ask`` make a call
    whose response is still owed when the caller's silo dies; the
    ``weird`` ones crash with, or send, a :class:`Weird`."""

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

    def weird(self):
        raise Weird(1, 2)

    def weird_burst(self, sink_key):
        yield from self.burst(sink_key, [0, Weird(1, 2), 2])

    def ask_weird(self):
        return (yield Call(ActorRef("burst", "crasher"), "weird"))


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
    return _instance(be, ref).seen


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


@pytest.mark.parametrize("transport", ["inproc", "inproc-copy", "tcp"])
def test_crash_whose_cause_will_not_unpickle_still_reaches_the_caller(
        transport):
    cluster, be = _burst_cluster(transport, call_timeout=0.5)
    with cluster:
        _spawn(be, "crasher", 1)
        result = _call(be, _spawn(be, "caller", 0), "ask_weird")
        assert isinstance(result, ActorCrashed), result
        assert repr(result.cause) == "Weird('1/2')"
        assert be.pickle_copy_failures == 0


def test_tcp_frame_that_will_not_unpickle_is_counted_and_the_link_lives():
    cluster, be = _burst_cluster("tcp")
    with cluster:
        source = _spawn(be, "source", 0)
        sink = _spawn(be, "sink", 1)
        _call(be, source, "weird_burst", "sink")
        assert be.run_until_idle()
        link = be.silos[0].peers[1]
        _call(be, source, "burst", "sink", [3, 4])
        assert be.run_until_idle()
        assert _seen(be, sink) == [3, 4]    # the bad frame held all three
        assert be.pickle_copy_failures == 1
        assert be.silos[0].peers[1] is link and len(be.silos[1].inbound) == 1


def test_tcp_paused_link_holds_its_outbox_until_resumed():
    cluster, be = _burst_cluster("tcp")
    with cluster:
        source = _spawn(be, "source", 0)
        sink = _spawn(be, "sink", 1)
        _call(be, source, "burst", "sink", [-1])    # opens the link
        assert be.run_until_idle()
        link = be.silos[0].peers[1]
        link.pause_writing()
        _call(be, source, "burst", "sink", list(range(20)))
        be.run(until=be.sim.now + 0.05)
        assert [m.args[0] for m in link.outbox] == list(range(20))
        assert _seen(be, sink) == [-1]
        link.resume_writing()
        assert be.run_until_idle()
        assert _seen(be, sink) == [-1, *range(20)]
        assert not link.outbox


def test_tcp_fail_restart_reconnects_and_leaves_no_outbox():
    cluster, be = _burst_cluster("tcp", call_timeout=0.2)
    with cluster:
        _spawn(be, "slow", 0)
        asker = _spawn(be, "asker", 1)
        assert _call(be, asker, "ask", 1) == 1
        old_link = be.silos[0].peers[1]

        # Silo 1 dies while silo 0 still owes it a response: the response
        # is dropped (no port to send it to), not parked in an outbox.
        be.client_request(asker, "ask", 2)
        be.sim.schedule(0.01, be.fail_silo, 1)
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
# Batches: one tick per loop iteration, and the receive batch
# ----------------------------------------------------------------------
class TickActor(Actor):
    """``LOG`` outlives the instance (a failed silo takes it along);
    ``KILL`` is the test's hook for a turn that fails other silos."""

    LOG: list = []
    KILL: Callable = None

    def kill(self):
        TickActor.KILL()
        TickActor.LOG.append(("kill", self.key))

    def tell(self, sink_key, payload):
        TickActor.LOG.append(("ran", self.key))
        yield Tell(ActorRef("burst", sink_key), "note", payload)

    def spin(self, n):
        """Keep a segment of this silo's ready, one Tell to itself at a time."""
        if n:
            yield Tell(ActorRef("tick", self.key), "spin", n - 1)

    def split_burst(self, sink_key, payloads):
        """Half the burst from the batch the turn starts in, the rest from
        the receive batch its call's response resumes it in."""
        half = len(payloads) // 2
        for payload in payloads[:half]:
            yield Tell(ActorRef("burst", sink_key), "note", payload)
        yield Call(ActorRef("burst", sink_key), "note", "mid")
        for payload in payloads[half:]:
            yield Tell(ActorRef("burst", sink_key), "note", payload)


def _iterations(be) -> list:
    """Count the loop's iterations: one selector ``select`` each."""
    count = [0]
    selector = be._loop._selector
    select = selector.select

    def counted(timeout=None):
        count[0] += 1
        return select(timeout)

    selector.select = counted
    return count


def _in_receive_batch() -> bool:
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == "data_received":
            return True
        frame = frame.f_back
    return False


def _one_iteration(be):
    be._loop.call_soon(be._loop.stop)
    be._loop.run_forever()


def _assert_no_batch_state(be):
    assert not be._ticking and not be._silos and not be._links
    assert not any(silo.armed for silo in be.silos)


@pytest.mark.parametrize("source", ["before_run", "timer", "send_control"])
def test_tcp_send_outside_any_batch_is_written_within_one_iteration(source):
    cluster, be = _burst_cluster("tcp")
    with cluster:
        sink = _spawn(be, "sink", 1)
        be._pick_gateway = lambda: be.silos[0]     # every message crosses
        be.send(sink, "note", -1)                   # opens the link
        assert be.run_until_idle()
        link = be.silos[0].peers[1]
        count = _iterations(be)
        sent, written = [], []
        write = link.transport.write
        link.transport.write = lambda data: (written.append(count[0]),
                                             write(data))

        def send():
            sent.append(count[0])
            be.send(sink, "note", 1)

        if source == "before_run":
            send()
        elif source == "timer":
            be.sim.schedule(0.0, send)
        else:
            be.send_control(0, send)
        be.run(until=be.sim.now + 0.02)    # a send after run began is
        assert be.run_until_idle()          # no part of its idle check
        assert _seen(be, sink) == [-1, 1]
        assert len(sent) == 1 and len(written) == 1
        assert written[0] - sent[0] <= 1, (sent, written)
        _assert_no_batch_state(be)


def test_tcp_burst_split_across_a_tick_and_a_receive_batch_stays_in_order():
    cluster, be = _burst_cluster("tcp")
    with cluster:
        be.register_actor("tick", TickActor)
        source = be.ref("tick", "source")
        be.spawn(source, server=0)
        sink = _spawn(be, "sink", 1)
        be._pick_gateway = lambda: be.silos[0]     # the turn starts in a tick
        _call(be, source, "split_burst", "sink", [0])   # opens both links
        link = be.silos[0].peers[1]
        batches = []
        send = link.send
        link.send = lambda message: (batches.append(_in_receive_batch()),
                                     send(message))
        _call(be, source, "split_burst", "sink", list(range(20)))
        assert be.run_until_idle()
        assert _seen(be, sink) == ["mid", 0, *range(10), "mid", *range(10, 20)]
        # The first half and the call left from the tick, the rest from
        # the receive batch the call's response resumed the turn in.
        assert batches == [False] * 11 + [True] * 10
        assert len(be.silos[1].inbound) == 1 and be.silos[0].peers[1] is link
        _assert_no_batch_state(be)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_silo_failed_mid_tick_runs_nothing_more_and_writes_nothing(
        transport):
    cluster = build_cluster(
        ClusterConfig(num_servers=3, seed=3), backend="asyncio",
        transport=transport, resilience=ResilienceConfig(call_timeout=0.2))
    with cluster:
        be = cluster.runtime
        be.register_actor("burst", BurstActor)
        be.register_actor("tick", TickActor)
        cluster.start()
        TickActor.LOG = []
        TickActor.KILL = lambda: (be.fail_silo(2), be.fail_silo(1))
        sink = _spawn(be, "sink", 0)
        early, killer, late = (be.ref("tick", k)
                               for k in ("early", "killer", "late"))
        be.spawn(early, server=2)
        be.spawn(killer, server=0)
        be.spawn(late, server=1)
        gateways = iter([2, 2, 0, 1])   # each request enters at its host
        be._pick_gateway = lambda: be.silos[next(gateways)]
        be.client_request(early, "tell", "sink", "warm")   # opens 2 -> 0
        assert be.run_until_idle()
        assert _seen(be, sink) == ["warm"]
        frames, LOG = be.tcp_frames, TickActor.LOG
        LOG.clear()
        # One tick: silo 2's turn queues a Tell, silo 0's turn fails
        # silos 2 and 1, silo 1's turn is still ready.
        for ref in (early, killer, late):
            be.client_request(ref, "tell" if ref is not killer else "kill",
                              *(("sink", "lost") if ref is not killer else ()))
        assert [s.server_id for s in be._silos] == [2, 0, 1]
        _one_iteration(be)                          # exactly that tick
        assert LOG == [("ran", "early"), ("kill", "killer")]
        assert be.tcp_frames == frames              # silo 2's Tell: dropped
        assert be.run_until_idle()
        # In process the Tell was delivered when it was sent, so silo 0's
        # batch (which began after silo 2's) ran it; on TCP it was still
        # in the outbox the failure dropped.
        lost = ["lost"] if transport == "inproc" else []
        assert _seen(be, sink) == ["warm", *lost]
        assert LOG == [("ran", "early"), ("kill", "killer")]
        _assert_no_batch_state(be)


def test_tcp_one_mebibyte_argument_spans_reads_and_keeps_link_order(
        monkeypatch):
    from repro.backend import asyncio_backend

    cluster, be = _burst_cluster("tcp")
    with cluster:
        be.register_actor("tick", TickActor)
        source = _spawn(be, "source", 0)
        sink = _spawn(be, "sink", 1)
        spinner = be.ref("tick", "spinner")
        be.spawn(spinner, server=1)
        _call(be, source, "burst", "sink", [-1])    # opens the link
        assert be.run_until_idle()
        # Silo 1 has a segment ready at every read, so a partial read
        # that ran a batch would run a turn.
        be._pick_gateway = lambda: be.silos[1]
        be.client_request(spinner, "spin", 400)
        _one_iteration(be)
        reads = []
        receive = asyncio_backend._PeerLink.data_received

        def spy(link, data):
            pending = len(link.buffer) + len(data)
            turns = (be.turns_run, be.turn_drains)
            receive(link, data)
            partial = len(link.buffer) == pending   # completed no frame
            reads.append((partial, turns == (be.turns_run, be.turn_drains)))

        monkeypatch.setattr(asyncio_backend._PeerLink, "data_received", spy)
        be._pick_gateway = lambda: be.silos[0]     # both turns run on silo 0
        big = bytes(range(256)) * 4096
        be.client_request(source, "burst", "sink", [big, 1, 2])
        _one_iteration(be)                          # the 1 MiB frame's tick
        be.client_request(source, "burst", "sink", [3, 4])
        assert be.run_until_idle()
        seen = _seen(be, sink)
        assert seen[0] == -1 and seen[1] == big and seen[2:] == [1, 2, 3, 4]
        partial = [ran_nothing for is_partial, ran_nothing in reads
                   if is_partial]
        assert len(partial) >= 2, reads        # 1 MiB took several reads
        assert all(partial), reads             # and none of them ran a turn
        _assert_no_batch_state(be)


def test_tcp_receive_batch_runs_what_its_read_readied_and_arms_no_tick(
        monkeypatch):
    from repro.backend import PingerActor, PongerActor, asyncio_backend

    cluster = build_cluster(ClusterConfig(num_servers=2, seed=3),
                            backend="asyncio", transport="tcp")
    with cluster:
        be = cluster.runtime
        be.register_actor("pinger", PingerActor)
        be.register_actor("ponger", PongerActor)
        cluster.start()
        pinger = be.ref("pinger", 0)
        be.spawn(pinger, server=0)
        be.spawn(be.ref("ponger", 0), server=1)
        be._pick_gateway = lambda: be.silos[0]
        assert _call(be, pinger, "ping", 1) == 1    # opens both links
        reads = []
        receive = asyncio_backend._PeerLink.data_received

        def spy(link, data):
            turns = be.turns_run
            receive(link, data)
            reads.append((link.silo.server_id, be.turns_run - turns,
                          be._ticking, list(be._silos)))

        monkeypatch.setattr(asyncio_backend._PeerLink, "data_received", spy)
        assert _call(be, pinger, "ping", 2) == 2
        # The ponger's read runs pong and writes the response; the
        # pinger's read resumes ping, which completes the request.
        # Neither leaves work for a tick.
        assert reads == [(1, 1, False, []), (0, 1, False, [])]


def test_tcp_error_raised_in_a_receive_batch_is_reported_and_the_link_lives():
    # A client callback raising inside the batch a response's read runs:
    # out of data_received asyncio would close the connection instead.
    cluster, be = _burst_cluster("tcp")
    with cluster:
        _spawn(be, "slow", 1)
        asker = _spawn(be, "asker", 0)
        be._pick_gateway = lambda: be.silos[0]
        assert _call(be, asker, "ask", 1) == 1          # opens both links
        links = (be.silos[0].peers[1], be.silos[1].peers[0])
        errors = []
        be._loop.set_exception_handler(lambda _loop, context:
                                       errors.append(context))

        def explode(_latency, _result):
            raise RuntimeError("client callback")

        be.client_request(asker, "ask", 2, on_complete=explode)
        assert be.run_until_idle()
        assert [str(c.get("exception")) for c in errors] == ["client callback"]
        assert _call(be, asker, "ask", 3) == 3
        assert (be.silos[0].peers[1], be.silos[1].peers[0]) == links
        assert len(be.silos[0].inbound) == 1
        assert not any(link.transport.is_closing() for link in links)
        _assert_no_batch_state(be)


# The loop budget of a hop, as counts: loop iterations per TCP ping (one
# selector ``select`` each) and loop callbacks per in-process Stageflow
# request (one ``call_soon`` each; in process no callback comes from a
# socket).  Counted in a fresh interpreter that imports only ``repro``,
# so the script runs under any CPython.  Before the tick (per-silo
# drains, per-link flushes) they read 8.0 and 4.68; after, 3.0 and
# 1.35 on CPython 3.10.13, 3.11.7 and 3.12.1.
PING_ITERATIONS = 3.5
STAGEFLOW_CALLBACKS = 2.0

_LOOP_COUNT = """
import sys
from repro import ClusterConfig, build_cluster
from repro.backend import PingerActor, PongerActor
from repro.workloads.stageflow import StageflowConfig, StageflowWorkload


def closed_loop(be, issue, clients, total):
    done = be._loop.create_future()
    state = {"issued": 0, "done": 0}

    def complete(_latency, _result):
        state["done"] += 1
        if state["done"] == total:
            done.set_result(None)
        elif state["issued"] < total:
            send()

    def send():
        state["issued"] += 1
        issue(complete)

    for _ in range(clients):
        send()
    be._loop.run_until_complete(done)


def ping(n):
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=1),
                            backend="asyncio", transport="tcp")
    with cluster:
        be = cluster.runtime
        be.register_actor("pinger", PingerActor)
        be.register_actor("ponger", PongerActor)
        cluster.start()
        pinger = be.ref("pinger", 0)
        be.spawn(pinger, server=0)
        be.spawn(be.ref("ponger", 0), server=1)
        issue = lambda cb: be.client_request(pinger, "ping", 1, on_complete=cb)
        closed_loop(be, issue, 1, 20)           # both links open
        selector, count = be._loop._selector, [0]
        select = selector.select
        def counted(timeout=None):
            count[0] += 1
            return select(timeout)
        selector.select = counted
        closed_loop(be, issue, 1, n)
        return count[0] / n


class Looped(StageflowWorkload):
    def _on_complete(self, latency, result, kind):
        super()._on_complete(latency, result, kind)
        self.on_done(latency, result)


def stageflow(n):
    cluster = build_cluster(ClusterConfig(num_servers=4, seed=1),
                            backend="asyncio", transport="inproc")
    with cluster:
        be = cluster.runtime
        cluster.start()
        workload = Looped(be, StageflowConfig(policy="round_robin",
                                              report_period=None))
        workload.start(arrivals=False)
        def issue(cb):
            workload.on_done = cb
            workload.drive(1)
        closed_loop(be, issue, 8, 40)
        loop, count = be._loop, [0]
        call_soon = loop.call_soon
        def counted(*args, **kwargs):
            count[0] += 1
            return call_soon(*args, **kwargs)
        loop.call_soon = counted
        closed_loop(be, issue, 8, n)
        return count[0] / n


print(sys.version.split()[0], ping(200) if sys.argv[1] == "ping"
      else stageflow(400))
"""


def _loop_count(kind: str) -> float:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", _LOOP_COUNT, kind],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    version, per_request = proc.stdout.split()
    print(f"\n{kind} on Python {version}: {per_request} per request")
    return float(per_request)


def test_loop_budget_tcp_ping_iterations():
    """200 closed-loop pings over TCP: a tick sends the call, a receive
    batch at the ponger answers it, one at the pinger completes it."""
    assert _loop_count("ping") <= PING_ITERATIONS


def test_loop_budget_inproc_stageflow_callbacks():
    """400 in-process Stageflow requests, 8 in flight, ~12 messages each:
    one tick per iteration runs every silo's batch."""
    assert _loop_count("stageflow") <= STAGEFLOW_CALLBACKS


# ----------------------------------------------------------------------
# build_cluster surface
# ----------------------------------------------------------------------
def test_unknown_backend_rejected():
    with pytest.raises(BackendError, match="unknown backend"):
        build_cluster(ClusterConfig(), backend="threads")


# One row per layer: what build_cluster is asked for, and the physical
# reason a driver gives for refusing it (a driver not named builds it).
# DESIGN.md "One runtime core, two drivers" carries the same matrix.
LAYERS = [
    ("partitioning",
     lambda: {"actop": ActOpConfig(partitioning=PartitioningConfig())}, {}),
    ("thread-allocation",
     lambda: {"actop": ActOpConfig(
         thread_allocation=ThreadControllerConfig())},
     {"asyncio": "no stages"}),
    ("shared-sim", lambda: {"sim": Simulator()}, {"asyncio": "wall clock"}),
    ("retry-deadline-capacity",
     lambda: {"resilience": ResilienceConfig(
         call_timeout=0.5, request_deadline=2.0,
         retry=RetryPolicy(max_attempts=3),
         admission=AdmissionConfig(capacity=8))}, {}),
    ("receiver-queue",
     lambda: {"resilience": ResilienceConfig(
         admission=AdmissionConfig(receiver_queue=8))},
     {"asyncio": "no receiver stage"}),
    ("supervision", lambda: {"supervision": SupervisionPolicy()}, {}),
    ("crash-restart-faults",
     lambda: {"faults": FaultPlan().crash(1.0, 1).restart(2.0, 1)
              .stale_directory(5.0)}, {}),
    ("slow-silo", lambda: {"faults": FaultPlan().slow_silo(1.0, 2.0, 0)},
     {"asyncio": "SlowSilo perturbs the modeled"}),
    ("partition",
     lambda: {"faults": FaultPlan().partition(1.0, 2.0, [0], [1])},
     {"asyncio": "NetworkPartition perturbs the modeled"}),
    ("degrade",
     lambda: {"faults": FaultPlan().degrade(1.0, 2.0, drop=0.5)},
     {"asyncio": "LinkDegradation perturbs the modeled"}),
    ("tcp-transport", lambda: {"transport": "tcp"},
     {"sim": "real sockets"}),
]


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
@pytest.mark.parametrize("kwargs, refusals",
                         [layer[1:] for layer in LAYERS],
                         ids=[layer[0] for layer in LAYERS])
def test_layer_runs_or_names_its_physical_reason(kwargs, refusals, backend):
    config = ClusterConfig(num_servers=2)
    if backend in refusals:
        with pytest.raises(BackendError, match=refusals[backend]):
            build_cluster(config, backend=backend, **kwargs())
    else:
        with build_cluster(config, backend=backend, **kwargs()) as cluster:
            assert cluster.runtime.name == backend


def test_resilience_call_timeout_carries_to_asyncio():
    cluster = build_cluster(ClusterConfig(num_servers=2), backend="asyncio",
                            resilience=ResilienceConfig(call_timeout=1.5))
    with cluster:
        assert cluster.runtime.call_timeout == 1.5
        assert cluster.runtime.name == "asyncio"
    # No call_timeout given: a real runtime still never waits forever.
    cluster = build_cluster(
        ClusterConfig(num_servers=2), backend="asyncio",
        resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)))
    with cluster:
        assert cluster.runtime.call_timeout == 5.0
        assert cluster.runtime.retry_policy.max_attempts == 2


def test_unknown_transport_rejected():
    with pytest.raises(BackendError, match="transport"):
        build_cluster(ClusterConfig(), backend="asyncio", transport="quic")
