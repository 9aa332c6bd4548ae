"""Integration tests for :mod:`repro.faults` — the injector end to end.

The load-bearing test here is the neutrality one: an **empty fault plan
must be bit-identical** to a run that never constructed the injector
(same event trace, same latency samples).  Everything else checks that
each fault action does what it says against a live cluster.
"""

import hashlib

import pytest

from repro.actor.actor import Actor
from repro.actor.calls import Call
from repro.actor.errors import CallTimeout
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.bench.harness import HaloExperiment
from repro.cluster import build_cluster
from repro.faults import (AdmissionConfig, FaultInjector, FaultPlan,
                          ResilienceConfig, RetryPolicy)
from repro.obs import Observability


class Echo(Actor):
    COMPUTE = {"ping": 1e-4}

    def ping(self):
        return "pong"


class Heavy(Actor):
    COMPUTE = {"work": 0.01}

    def work(self):
        return 1


class Fwd(Actor):
    COMPUTE = {"fwd": 1e-4}

    def fwd(self, target):
        reply = yield Call(target, "ping")
        return reply


# ----------------------------------------------------------------------
# Neutrality: empty plan == no injector, bit for bit.
# ----------------------------------------------------------------------
def _digest_mini_cluster(plan, horizon: float = 4.0):
    exp = HaloExperiment(players=80, num_servers=3, seed=5, faults=plan)
    exp.workload.start()
    exp.cluster.start()
    if plan is None:
        # Exercise the injector's own empty-plan path too: arming an
        # empty plan against the baseline run must change nothing.
        FaultInjector(exp.runtime, FaultPlan()).start()
    sim = exp.runtime.sim
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    return (digest.hexdigest(), sim.events_processed,
            sorted(exp.runtime.client_latency._samples))


def test_empty_fault_plan_is_bit_identical():
    base = _digest_mini_cluster(None)
    armed = _digest_mini_cluster(FaultPlan())
    assert base[1] > 1_000  # the run actually exercised the cluster
    assert base == armed


def test_empty_plan_installs_nothing():
    rt = ActorRuntime(ClusterConfig(num_servers=2, seed=0))
    injector = FaultInjector(rt, FaultPlan()).start()
    assert rt.network.faults is None
    assert injector.link_faults is None
    with pytest.raises(RuntimeError):
        injector.start()


# ----------------------------------------------------------------------
# Crash / restart.
# ----------------------------------------------------------------------
def test_crash_and_restart_with_failover():
    plan = FaultPlan().crash(2.0, 1).restart(6.0, 1)
    cluster = build_cluster(
        ClusterConfig(num_servers=3, seed=4),
        resilience=ResilienceConfig(call_timeout=0.5,
                                    retry=RetryPolicy(max_attempts=3)),
        faults=plan,
    )
    rt = cluster.runtime
    obs = Observability(rt)
    rt.register_actor("echo", Echo)
    refs = [rt.ref("echo", i) for i in range(30)]
    results = []

    def tick():
        for ref in refs:
            rt.client_request(ref, "ping",
                              on_complete=lambda lat, res: results.append(res))
        rt.sim.schedule(0.5, tick)

    rt.sim.schedule(0.0, tick)
    cluster.start()

    rt.run(until=4.0)  # mid-outage
    assert rt.silos[1].dead
    assert rt.census()[1] == 0  # the victim hosts nothing while dead
    assert cluster.injector.faults_started == 1

    rt.run(until=10.0)
    assert not rt.silos[1].dead
    assert cluster.injector.faults_started == 2
    # Every issued request resolved: completed or timed out, none hang.
    issued = 30 * len([t for t in range(20) if t * 0.5 < 10.0])
    assert rt.requests_completed + rt.requests_timed_out == issued
    assert rt.inflight_requests <= 30
    # The displaced actors re-activated on survivors and answered.
    assert sum(1 for r in results if r == "pong") > 0.9 * len(results)
    fault_events = [e for e in obs.events if type(e).KIND == "fault"]
    assert [e.fault for e in fault_events] == ["SiloCrash", "SiloRestart"]
    assert all(e.phase == "start" for e in fault_events)


def _accounted(rt):
    return (rt.requests_completed + rt.requests_timed_out
            + rt.rejected_requests + rt.requests_shed + rt.inflight_requests)


def test_every_issued_request_is_accounted_for():
    """``requests_issued`` counts client requests, not attempts: it equals
    what ended (completed, timed out, rejected, shed) plus what is still
    in flight — on a plain Halo slice, and under message loss with
    retries and a bounded admission window."""
    exp = HaloExperiment(players=120, num_servers=3, seed=11)
    exp.workload.start()
    exp.runtime.run(until=6.0)
    rt = exp.runtime
    assert rt.requests_completed > 0
    assert rt.requests_issued == _accounted(rt)

    plan = FaultPlan().degrade(1.0, 3.0, drop=0.5)
    cluster = build_cluster(
        ClusterConfig(num_servers=3, seed=4),
        resilience=ResilienceConfig(call_timeout=0.5,
                                    retry=RetryPolicy(max_attempts=3),
                                    admission=AdmissionConfig(capacity=40)),
        faults=plan,
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    refs = [rt.ref("echo", i) for i in range(30)]
    calls = 0

    def tick():
        nonlocal calls
        for ref in refs:
            calls += 1
            rt.client_request(ref, "ping")
        rt.sim.schedule(0.5, tick)

    rt.sim.schedule(0.0, tick)
    cluster.start()
    for until in (2.0, 3.0, 10.0):
        rt.run(until=until)
        assert rt.requests_issued == calls == _accounted(rt)
    assert rt.request_retries > 0 and rt.requests_shed > 0
    assert rt.requests_timed_out > 0 and rt.inflight_requests > 0

    # A request that finds every silo failed raises and is not issued.
    for server in range(3):
        rt.fail_silo(server)
    with pytest.raises(RuntimeError, match="every silo"):
        rt.client_request(refs[0], "ping")
    assert rt.requests_issued == calls == _accounted(rt)


# ----------------------------------------------------------------------
# Slow silo.
# ----------------------------------------------------------------------
def test_slow_silo_inflates_service_time():
    plan = FaultPlan().slow_silo(1.0, 2.0, server=0, factor=20.0)
    cluster = build_cluster(ClusterConfig(num_servers=1, seed=1), faults=plan)
    rt = cluster.runtime
    rt.register_actor("heavy", Heavy)
    ref = rt.ref("heavy", 0)
    lat = {}

    def probe(name, at):
        rt.sim.schedule(at, lambda: rt.client_request(
            ref, "work",
            on_complete=lambda latency, res: lat.__setitem__(name, latency)))

    probe("before", 0.5)
    probe("during", 1.2)
    probe("after", 2.5)
    cluster.start()
    rt.run(until=5.0)
    assert rt.silos[0].server.cpu.throttle == 1.0  # window ended
    assert lat["during"] > 10 * lat["before"]
    assert lat["after"] < 2 * lat["before"]
    assert cluster.injector.faults_ended == 1


# ----------------------------------------------------------------------
# Link faults: drop, delay, duplicate, partition.
# ----------------------------------------------------------------------
def test_total_drop_times_out_then_recovers():
    plan = FaultPlan().degrade(1.0, 2.0, drop=1.0)
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=2),
        resilience=ResilienceConfig(call_timeout=0.2),
        faults=plan,
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    ref = rt.ref("echo", 0)
    results = []
    for at in (0.2, 1.2, 2.5):
        rt.sim.schedule(at, lambda: rt.client_request(
            ref, "ping", on_complete=lambda lat, res: results.append(res)))
    cluster.start()
    rt.run(until=5.0)
    assert results[0] == "pong"
    assert isinstance(results[1], CallTimeout)  # dropped inside the window
    assert results[2] == "pong"                 # healed
    assert cluster.injector.link_faults.messages_dropped > 0


def test_delay_and_duplicate_are_harmless_to_completion():
    plan = FaultPlan().degrade(0.0, 10.0, delay=0.05, duplicate=1.0)
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=3), faults=plan)
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    lats = []
    for i in range(20):
        ref = rt.ref("echo", i)
        # 0.05 offset: the window begins at t=0 with a same-timestamp
        # event; requests must land strictly inside it.
        rt.sim.schedule(0.05 + 0.1 * i, lambda ref=ref: rt.client_request(
            ref, "ping", on_complete=lambda lat, res: lats.append(lat)))
    cluster.start()
    rt.run(until=10.0)
    model = cluster.injector.link_faults
    assert model.messages_duplicated > 0
    assert model.messages_delayed > 0
    # Duplicated deliveries never double-complete a request.
    assert rt.requests_completed == 20
    assert rt.late_responses > 0
    assert all(lat >= 0.1 for lat in lats)  # >= request+response delay


def test_partition_cuts_inter_silo_calls_only():
    plan = FaultPlan().partition(1.0, 2.0, {0}, {1})
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=6),
        resilience=ResilienceConfig(call_timeout=0.3),
        faults=plan,
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    rt.register_actor("fwd", Fwd)
    fwd, echo = rt.ref("fwd", 0), rt.ref("echo", 0)
    rt.activate(fwd.id, 0)
    rt.activate(echo.id, 1)
    results = []
    for at in (0.2, 1.2, 2.5):
        rt.sim.schedule(at, lambda: rt.client_request(
            fwd, "fwd", echo,
            on_complete=lambda lat, res: results.append(res)))
    cluster.start()
    rt.run(until=6.0)
    assert results[0] == "pong"
    # Inside the window the cross-silo call dies; the actor-level call
    # timeout surfaces (the client leg, src=None, is never partitioned).
    assert isinstance(results[1], CallTimeout)
    assert results[2] == "pong"
    assert cluster.injector.link_faults.messages_dropped > 0
    assert cluster.injector.link_faults.idle  # healed and uninstalled-idle


# ----------------------------------------------------------------------
# Directory staleness.
# ----------------------------------------------------------------------
def test_directory_staleness_heals_on_next_call():
    plan = FaultPlan().stale_directory(1.0, count=5)
    cluster = build_cluster(ClusterConfig(num_servers=3, seed=7), faults=plan)
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    refs = [rt.ref("echo", i) for i in range(12)]
    results = []

    def tick():
        for ref in refs:
            rt.client_request(ref, "ping",
                              on_complete=lambda lat, res: results.append(res))
        rt.sim.schedule(0.4, tick)

    rt.sim.schedule(0.0, tick)
    cluster.start()
    rt.run(until=6.0)
    assert cluster.injector.actors_staled > 0
    # Stale entries self-heal: every request (including those that chased
    # a poisoned hint) completed with the right answer.
    assert results and all(r == "pong" for r in results)
    for ref in refs:
        assert rt.locate(ref.id) is not None
