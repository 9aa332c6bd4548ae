"""Integration tests for the client-side resilience layer.

Covers the late-response double-completion regression (a response
arriving after its timeout must be discarded, not re-completed), retry
under transient faults, retry-budget and deadline exhaustion, admission
control under both shed policies — on the simulator (lossy links under
virtual time) and on the asyncio driver (a silo crash mid-``Sleep`` and
naps that outlast the timeout, on ``inproc`` and ``tcp``) — and that the
pre-layering flat forms are rejected by Python's own ``TypeError``.
"""

import pytest

from repro.actor.actor import Actor
from repro.actor.calls import Call, Sleep
from repro.actor.timeouts import Deadlines
from repro.actor.errors import CallTimeout, RequestShed
from repro.actor.ids import ActorRef
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.cluster import build_cluster
from repro.core.actop import ActOp
from repro.core.partitioning.coordinator import PartitioningConfig
from repro.faults import resilience as backoff
from repro.faults import (
    AdmissionConfig,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
from repro.obs import Observability
from repro.seda.stage import Stage
from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator


class Echo(Actor):
    COMPUTE = {"ping": 1e-4}

    def ping(self):
        return "pong"


class Heavy(Actor):
    COMPUTE = {"work": 0.05}

    def work(self):
        return 1


def _request(rt, ref, method, results, args=(), **kwargs):
    rt.client_request(ref, method, *args,
                      on_complete=lambda lat, res: results.append(res),
                      **kwargs)


def _each_completed_once(*per_request):
    """Exactly-once completion: each list holds one request's
    ``on_complete`` calls, and every request got exactly one."""
    assert [len(calls) for calls in per_request] == [1] * len(per_request)


# ----------------------------------------------------------------------
# The late-response regression (the bug this PR fixes).
# ----------------------------------------------------------------------
def test_late_response_is_discarded_not_double_completed():
    """A response that loses the race against its timeout is dropped.

    Before the ``_inflight`` bookkeeping, the late response re-completed
    the request: the latency recorder got a bogus sample and the
    completion hook fired a second time.
    """
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=0),
                      resilience=ResilienceConfig(call_timeout=0.01))
    rt.register_actor("heavy", Heavy)  # 50 ms of work vs a 10 ms timeout
    results = []
    _request(rt, rt.ref("heavy", 0), "work", results)
    rt.run(until=1.0)

    assert rt.requests_timed_out == 1
    assert rt.requests_completed == 0
    assert rt.late_responses == 1          # the response did arrive...
    assert rt.client_latency.count == 0    # ...but was not recorded
    _each_completed_once(results)          # ...nor completed the request
    assert isinstance(results[0], CallTimeout)
    assert rt.inflight_requests == 0


# ----------------------------------------------------------------------
# Retry.
# ----------------------------------------------------------------------
def test_retry_recovers_from_transient_outage(monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.1)
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=1),
        resilience=ResilienceConfig(
            call_timeout=0.1,
            retry=RetryPolicy(max_attempts=5)),
        faults=FaultPlan().degrade(0.0, 0.3, drop=1.0),
    )
    rt = cluster.runtime
    obs = Observability(rt)
    rt.register_actor("echo", Echo)
    results = []
    rt.sim.schedule(0.01, _request, rt, rt.ref("echo", 0), "ping", results)
    cluster.start()
    rt.run(until=5.0)
    assert results == ["pong"]
    assert rt.request_retries >= 1
    assert rt.requests_completed == 1
    assert rt.requests_timed_out == 0
    assert [e for e in obs.events if type(e).KIND == "retry"]


def test_retry_budget_exhausts_into_terminal_timeout(monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=2),
        resilience=ResilienceConfig(
            call_timeout=0.05,
            retry=RetryPolicy(max_attempts=3)),
        faults=FaultPlan().degrade(0.0, 100.0, drop=1.0),
    )
    rt = cluster.runtime
    obs = Observability(rt)
    rt.register_actor("echo", Echo)
    results = []
    rt.sim.schedule(0.01, _request, rt, rt.ref("echo", 0), "ping", results)
    cluster.start()
    rt.run(until=10.0)
    assert len(results) == 1 and isinstance(results[0], CallTimeout)
    assert rt.request_retries == 2        # attempts 2 and 3
    assert rt.requests_timed_out == 1     # one terminal timeout
    assert rt.requests_completed == 0
    assert rt.inflight_requests == 0
    assert len([e for e in obs.events if type(e).KIND == "retry"]) == 2


def test_non_idempotent_requests_are_not_retried(monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=3),
        resilience=ResilienceConfig(
            call_timeout=0.05,
            retry=RetryPolicy(max_attempts=4)),
        faults=FaultPlan().degrade(0.0, 100.0, drop=1.0),
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    results = []
    rt.sim.schedule(0.01, lambda: rt.client_request(
        rt.ref("echo", 0), "ping", idempotent=False,
        on_complete=lambda lat, res: results.append(res)))
    cluster.start()
    rt.run(until=5.0)
    assert len(results) == 1 and isinstance(results[0], CallTimeout)
    assert rt.request_retries == 0
    assert rt.requests_timed_out == 1


def test_request_deadline_caps_the_retry_storm(monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=4),
        resilience=ResilienceConfig(
            call_timeout=0.06, request_deadline=0.2,
            retry=RetryPolicy(max_attempts=50)),
        faults=FaultPlan().degrade(0.0, 100.0, drop=1.0),
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    done_at = []
    rt.sim.schedule(0.01, lambda: rt.client_request(
        rt.ref("echo", 0), "ping",
        on_complete=lambda lat, res: done_at.append(rt.sim.now)))
    cluster.start()
    rt.run(until=10.0)
    assert rt.requests_timed_out == 1
    assert rt.request_retries < 49        # the deadline stopped the storm
    assert done_at and done_at[0] <= 0.35  # deadline + one timeout + slack
    assert rt.inflight_requests == 0


def test_deadline_only_timeout_reports_the_budget_that_was_armed():
    """With a request deadline and no ``call_timeout`` the timer is armed
    with what the deadline leaves; the hook used to be told ``0.0``."""
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=4),
        resilience=ResilienceConfig(request_deadline=0.2),
        faults=FaultPlan().degrade(0.0, 100.0, drop=1.0),
    )
    rt = cluster.runtime
    rt.register_actor("echo", Echo)
    outcomes = []
    rt.client_request(rt.ref("echo", 0), "ping",
                      on_complete=lambda lat, res: outcomes.append(
                          (rt.sim.now, lat, res)))
    cluster.start()
    rt.run(until=1.0)
    (at, latency, result), = outcomes
    assert at == pytest.approx(0.2)
    assert isinstance(result, CallTimeout)
    assert latency == pytest.approx(0.2)
    assert result.timeout == pytest.approx(0.2)
    assert "timed out after 0.2s" in str(result)


def test_backoff_reaching_the_deadline_ends_the_request_there_once():
    """A retry whose backoff reaches the request deadline used to be
    dispatched anyway, with a zero timer: it counted a retry that could
    never be answered and reported ``timed out after 0.0s``."""
    cluster = build_cluster(
        ClusterConfig(num_servers=2, seed=4),
        resilience=ResilienceConfig(
            call_timeout=0.06, request_deadline=0.2,
            retry=RetryPolicy(max_attempts=50)),
        faults=FaultPlan().degrade(0.0, 100.0, drop=1.0),
    )
    rt = cluster.runtime
    obs = Observability(rt)
    rt.register_actor("echo", Echo)
    outcomes = []
    rt.sim.schedule(0.01, lambda: rt.client_request(
        rt.ref("echo", 0), "ping",
        on_complete=lambda lat, res: outcomes.append((rt.sim.now, lat, res))))
    cluster.start()
    rt.run(until=1.0)
    # Attempt 1 times out at 0.07 and backs off 50-75 ms; attempt 2 times
    # out by 0.205, and its 100-150 ms backoff overshoots 0.21.
    (at, latency, result), = outcomes
    assert at == pytest.approx(0.21)
    assert isinstance(result, CallTimeout)
    assert latency == pytest.approx(0.2)
    assert "timed out after 0.2s" in str(result)
    assert rt.request_retries == 1 and rt.requests_timed_out == 1
    assert len([e for e in obs.events if type(e).KIND == "retry"]) == 1
    assert rt.inflight_requests == 0


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------
def _admission_runtime(policy: str):
    rt = ActorRuntime(
        ClusterConfig(num_servers=1, seed=5),
        resilience=ResilienceConfig(
            admission=AdmissionConfig(capacity=1, policy=policy)))
    rt.register_actor("heavy", Heavy)
    return rt


def test_admission_reject_sheds_the_newcomer():
    rt = _admission_runtime("reject")
    obs = Observability(rt)
    first, second = [], []

    def burst():
        _request(rt, rt.ref("heavy", 0), "work", first)
        _request(rt, rt.ref("heavy", 1), "work", second)

    rt.sim.schedule(0.0, burst)
    rt.run(until=2.0)
    assert first == [1]                    # the admitted request completed
    assert len(second) == 1 and isinstance(second[0], RequestShed)
    assert second[0].policy == "reject"
    assert rt.requests_shed == 1
    assert rt.requests_completed == 1
    shed_events = [e for e in obs.events if type(e).KIND == "shed"]
    assert len(shed_events) == 1 and shed_events[0].policy == "reject"


def test_admission_drop_oldest_spares_inflight_work():
    """With every admitted request dispatched, the *newcomer* is shed.

    The old behaviour — evict the dispatched veteran — is the drop-oldest
    livelock documented in benchmarks/test_overload_shedding.py: under a
    sustained ramp every admitted request was abandoned before it could
    finish.  Now in-flight work is never thrown away.
    """
    rt = _admission_runtime("drop_oldest")
    first, second = [], []

    def burst():
        _request(rt, rt.ref("heavy", 0), "work", first)
        _request(rt, rt.ref("heavy", 1), "work", second)

    rt.sim.schedule(0.0, burst)
    rt.run(until=2.0)
    assert first == [1]                    # the dispatched veteran finished
    assert len(second) == 1 and isinstance(second[0], RequestShed)
    assert second[0].policy == "drop_oldest"
    assert rt.requests_shed == 1
    assert rt.requests_completed == 1
    assert rt.inflight_requests == 0


def test_admission_drop_oldest_evicts_backoff_victim(monkeypatch):
    """The eviction target is the oldest *non-in-flight* entry: a request
    parked in retry backoff holds an admission slot but no server work,
    so it is the one sacrificed for a new arrival."""
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.2)
    monkeypatch.setattr(backoff, "JITTER", 0.0)
    rt = ActorRuntime(
        ClusterConfig(num_servers=1, seed=5),
        resilience=ResilienceConfig(
            call_timeout=0.01,             # Heavy takes 0.05: always times out
            retry=RetryPolicy(max_attempts=5),
            admission=AdmissionConfig(capacity=1, policy="drop_oldest")))
    rt.register_actor("heavy", Heavy)
    rt.register_actor("echo", Echo)
    first, second = [], []
    _request(rt, rt.ref("heavy", 0), "work", first)
    # t=0.01: first times out, enters a 0.2 s backoff still holding the
    # slot.  t=0.05: a newcomer arrives and takes it.
    rt.sim.schedule(0.05, _request, rt, rt.ref("echo", 1), "ping", second)
    rt.run(until=0.06)
    assert len(first) == 1 and isinstance(first[0], RequestShed)
    assert first[0].policy == "drop_oldest"
    assert rt.requests_shed == 1
    rt.run(until=2.0)
    assert second == ["pong"]              # the newcomer got the slot
    assert rt.requests_completed == 1


def test_admission_frees_slots_on_completion():
    rt = _admission_runtime("reject")
    results = []
    for at in (0.0, 0.5, 1.0):  # sequential: each fits the 1-slot window
        rt.sim.schedule(at, _request, rt, rt.ref("heavy", 0), "work", results)
    rt.run(until=3.0)
    assert results == [1, 1, 1]
    assert rt.requests_shed == 0


# ----------------------------------------------------------------------
# The same layer on the asyncio driver.  Every assertion is on counts and
# outcomes, never on how fast the wall clock got there; flush() and
# run_until_idle() wait up to 30 s for runs that take well under one.
# ----------------------------------------------------------------------
class Napper(Actor):
    def nap(self, duration):
        yield Sleep(duration)
        return "rested"


def _asyncio_cluster(transport, resilience, servers=2):
    cluster = build_cluster(ClusterConfig(num_servers=servers, seed=6),
                            backend="asyncio", transport=transport,
                            resilience=resilience)
    cluster.runtime.register_actor("napper", Napper)
    cluster.start()
    return cluster


TRANSPORTS = pytest.mark.parametrize("transport", ["inproc", "tcp"])


@TRANSPORTS
def test_asyncio_retry_completes_on_the_replaced_actor(transport, monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    resilience = ResilienceConfig(
        call_timeout=0.5, request_deadline=10.0,   # ten 50 ms naps
        retry=RetryPolicy(max_attempts=3),
        admission=AdmissionConfig(capacity=1))
    with _asyncio_cluster(transport, resilience) as cluster:
        be = cluster.runtime
        obs = Observability(be)
        ref = be.ref("napper", 0)
        be.spawn(ref, server=1)
        first, second = [], []
        # The silo dies under the sleeping turn (armed first, so its
        # timer is due before the nap's however slow the hour): the
        # attempt can only time out, and the retry re-places the actor
        # on the survivor.
        be.sim.schedule(0.01, be.fail_silo, 1)
        _request(be, ref, "nap", first, args=(0.05,))
        _request(be, ref, "nap", second, args=(0.05,))  # window is full
        assert len(second) == 1 and isinstance(second[0], RequestShed)
        be.flush()
        assert first == ["rested"] and be.locate(ref.id) == 0
        assert be.request_retries == 1 and be.requests_completed == 1
        assert be.requests_shed == 1 and be.requests_timed_out == 0
        assert be.run_until_idle() and be.inflight_requests == 0
        assert len([e for e in obs.events if type(e).KIND == "retry"]) == 1
        _each_completed_once(first, second)


@TRANSPORTS
def test_asyncio_retry_budget_and_non_idempotent_requests(transport, monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    resilience = ResilienceConfig(
        call_timeout=0.03, retry=RetryPolicy(max_attempts=3))
    with _asyncio_cluster(transport, resilience) as cluster:
        be = cluster.runtime
        replayable, one_shot = [], []
        # Every attempt naps ten timeouts long.
        _request(be, be.ref("napper", 0), "nap", replayable, args=(0.3,))
        _request(be, be.ref("napper", 1), "nap", one_shot, args=(0.3,),
                 idempotent=False)
        be.flush()
        assert isinstance(replayable[0], CallTimeout)
        assert isinstance(one_shot[0], CallTimeout)
        assert len(replayable) == len(one_shot) == 1
        assert be.request_retries == 2        # attempts 2 and 3 of the first
        assert be.requests_timed_out == 2 and be.requests_completed == 0
        assert be.run_until_idle() and be.inflight_requests == 0
        assert be.late_responses == 4         # every nap did answer, late
        _each_completed_once(replayable, one_shot)   # and none re-completed


@TRANSPORTS
def test_asyncio_request_deadline_caps_the_retry_storm(transport, monkeypatch):
    monkeypatch.setattr(backoff, "BASE_DELAY", 0.01)
    resilience = ResilienceConfig(
        call_timeout=0.06, request_deadline=0.2,
        retry=RetryPolicy(max_attempts=50))
    with _asyncio_cluster(transport, resilience) as cluster:
        be = cluster.runtime
        outcomes = []
        be.client_request(be.ref("napper", 0), "nap", 0.5,
                          on_complete=lambda lat, res: outcomes.append(
                              (be.sim.now, lat, res)))
        be.flush()
        (at, latency, result), = outcomes
        assert isinstance(result, CallTimeout)
        assert 0.2 <= at < 2.0                # at the deadline, not 50 x 0.06
        assert latency == 0.2 and "timed out after 0.2s" in str(result)
        assert be.requests_timed_out == 1 and be.request_retries <= 3
        assert be.run_until_idle() and be.inflight_requests == 0


# ----------------------------------------------------------------------
# The deadline table: every call and client-request timeout, one heap
# per silo and one per cluster under one timer each, on both drivers.
# ----------------------------------------------------------------------
class Asker(Actor):
    def ask(self, duration, timeout):
        try:
            return (yield Call(ActorRef("napper", 0), "nap", duration,
                               timeout=timeout))
        except CallTimeout as error:
            return error


def _deadline_runtime(seed, call_timeout):
    rt = ActorRuntime(ClusterConfig(num_servers=2, seed=seed),
                      resilience=ResilienceConfig(call_timeout=call_timeout))
    rt.register_actor("asker", Asker)
    rt.register_actor("napper", Napper)
    rt.spawn(rt.ref("asker", 0), server=0)
    rt.spawn(rt.ref("napper", 0), server=1)
    return rt


def test_call_and_client_timeouts_fire_at_issue_plus_timeout(monkeypatch):
    """Each timeout fires at the float ``issued + timeout`` that a timer
    of its own, scheduled ``timeout`` after issue, would have fired at."""
    armed, fired = {}, []
    add = Deadlines.add

    def spy(table, deadline, call_id, *payload):
        armed[call_id] = (table.clock.now, payload[-1], deadline)
        add(table, deadline, call_id, *payload)

    monkeypatch.setattr(Deadlines, "add", spy)
    rt = _deadline_runtime(seed=7, call_timeout=0.3)
    tables = {"client": rt._deadlines}
    tables.update((f"silo{s.server_id}", s._deadlines) for s in rt.silos)
    for name, table in tables.items():
        def fire(call_id, *payload, name=name, inner=table.fire):
            fired.append((name, call_id, rt.sim.now))
            inner(call_id, *payload)
        table.fire = fire
    results = []
    # The inner call times out after 20 ms; the client's own 0.3 s
    # timeout fires before the inner call's default 0.3 s one.
    _request(rt, rt.ref("asker", 0), "ask", results, args=(1.0, 0.02))
    _request(rt, rt.ref("asker", 0), "ask", results, args=(1.0, None))
    rt.run()
    assert [type(r) for r in results] == [CallTimeout, CallTimeout]
    assert rt.requests_completed == 1 and rt.requests_timed_out == 1
    assert {name for name, _, _ in fired} == {"client", "silo0"}
    for _, call_id, at in fired:
        issued, timeout, deadline = armed[call_id]
        assert at == deadline == issued + timeout
    assert sorted(t for _, t, _ in armed.values()) == [0.02, 0.3, 0.3, 0.3]
    assert len(fired) == 3  # the answered request's entry never fires


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_a_timeout_that_issues_the_next_request_ends_each_once(backend):
    """A closed loop: each request's timeout issues the next one from
    inside the table's own timer, which re-arms the same table."""
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=8),
                            backend=backend,
                            resilience=ResilienceConfig(call_timeout=0.01))
    with cluster:
        be = cluster.runtime
        be.register_actor("napper", Napper)
        cluster.start()
        ended = []

        def issue(n):
            be.client_request(be.ref("napper", 0), "nap", 0.05,
                              on_complete=lambda _lat, res: end(n, res))

        def end(n, result):
            ended.append((n, type(result)))
            if n < 19:
                issue(n + 1)

        issue(0)
        cluster.run()
        assert ended == [(n, CallTimeout) for n in range(20)]
        assert be.requests_timed_out == 20 and be.requests_completed == 0
        assert be.inflight_requests == 0
        assert not be._deadlines.heap and be._deadlines.timer is None


def test_a_crashed_silo_leaves_an_empty_deadline_table():
    rt = _deadline_runtime(seed=9, call_timeout=0.5)
    rt.client_request(rt.ref("asker", 0), "ask", 1.0, None)
    rt.run(until=0.1)
    table = rt.silos[0]._deadlines
    assert table.heap and table.timer is not None  # the asker's call
    rt.fail_silo(0)
    assert not table.heap and table.timer is None
    rt.run()
    assert rt.requests_timed_out == 1 and rt.inflight_requests == 0


# ----------------------------------------------------------------------
# The pre-layering flat forms are gone: Python's own TypeError, no shim.
# ----------------------------------------------------------------------
def _stage_with_tracer():
    sim = Simulator()
    return Stage(sim, CpuPool(sim, 2), "s", tracer=print)


@pytest.mark.parametrize("build", [
    lambda: ClusterConfig(call_timeout=0.5),
    lambda: build_cluster(ClusterConfig(num_servers=1), ResilienceConfig()),
    lambda: build_cluster(cluster=ClusterConfig(num_servers=1)),
    _stage_with_tracer,
    lambda: ActOp(ActorRuntime(ClusterConfig(num_servers=1)),
                  partitioning=PartitioningConfig()),
], ids=["cluster-config-knob", "positional-layer", "cluster-keyword",
        "stage-tracer", "actop-keywords"])
def test_removed_flat_forms_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
