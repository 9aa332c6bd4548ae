"""Integration tests: timeouts, error propagation, silo failure.

§2's Orleans contract: "the system automatically handles hardware or
software failures by re-instantiating the failed actor upon the next
call to it."  These tests crash silos, lose volatile state, time calls
out, and propagate application errors across actor boundaries.
"""

import pytest

from repro.actor.actor import Actor
from repro.actor.calls import All, Call, Sleep
from repro.actor.errors import ActorError, CallTimeout
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.cluster import build_cluster
from repro.faults.resilience import ResilienceConfig


class Vault(Actor):
    """Persists its balance only on deactivation (Orleans-style)."""

    def __init__(self):
        super().__init__()
        self.balance = 0

    def deposit(self, amount):
        self.balance += amount
        return self.balance


class Grump(Actor):
    COMPUTE = {"slow_ok": 0.5}

    def fail_me(self):
        raise ActorError("no service today")

    def ok(self):
        return "fine"

    def slow_ok(self):
        return "slow fine"


class Relay(Actor):
    def relay(self, target, method):
        reply = yield Call(target, method)
        return reply

    def relay_guarded(self, target, method):
        try:
            # Tighter per-call timeout than the cluster default, so the
            # inner await resolves before the client-level timer.
            reply = yield Call(target, method, timeout=0.6)
        except ActorError as error:
            return f"caught: {error}"
        return reply

    def fan(self, targets):
        replies = yield All([Call(t, "ok") for t in targets])
        return replies


def make_runtime(servers=3, call_timeout=None, seed=0):
    resilience = (ResilienceConfig(call_timeout=call_timeout)
                  if call_timeout is not None else None)
    rt = ActorRuntime(ClusterConfig(num_servers=servers, seed=seed),
                      resilience=resilience)
    rt.register_actor("vault", Vault)
    rt.register_actor("grump", Grump)
    rt.register_actor("relay", Relay)
    return rt


# ----------------------------------------------------------------------
# Application-error propagation
# ----------------------------------------------------------------------
def test_actor_error_reaches_client():
    rt = make_runtime()
    results = []
    rt.client_request(rt.ref("grump", 1), "fail_me",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert len(results) == 1
    assert isinstance(results[0], ActorError)


def test_actor_error_rethrown_at_callers_yield():
    rt = make_runtime()
    results = []
    rt.client_request(rt.ref("relay", 1), "relay_guarded",
                      rt.ref("grump", 1), "fail_me",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert results == ["caught: no service today"]


def test_uncaught_actor_error_fails_the_whole_chain():
    rt = make_runtime()
    results = []
    rt.client_request(rt.ref("relay", 1), "relay",
                      rt.ref("grump", 1), "fail_me",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert isinstance(results[0], ActorError)


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_in_flight_call_lost_to_crash_times_out():
    """The silo dies while the call is executing there: the response is
    lost and the caller's await resolves via CallTimeout."""
    rt = make_runtime(call_timeout=1.0)
    relay, grump = rt.ref("relay", 1), rt.ref("grump", 1)
    rt.activate(relay.id, 0)
    rt.activate(grump.id, 1)
    results = []
    rt.client_request(relay, "relay_guarded", grump, "slow_ok",
                      on_complete=lambda lat, res: results.append(res))
    # slow_ok computes for 0.5 s; crash the host mid-execution.
    rt.sim.schedule(0.2, rt.fail_silo, 1)
    rt.run(until=5.0)
    assert len(results) == 1
    assert results[0].startswith("caught:")
    assert "timed out" in results[0]


def test_client_request_to_failed_silo_times_out():
    rt = make_runtime(call_timeout=1.0)
    grump = rt.ref("grump", 1)
    rt.activate(grump.id, 2)
    rt.fail_silo(2)
    results = []
    rt.client_request(grump, "ok",
                      on_complete=lambda lat, res: results.append(res))
    # The grump's directory entry died with silo 2, so the gateway will
    # re-place it on a live silo and the request actually succeeds...
    rt.run(until=5.0)
    assert results == ["fine"]


def test_timeout_does_not_fire_on_timely_response():
    rt = make_runtime(call_timeout=5.0)
    results = []
    rt.client_request(rt.ref("grump", 1), "ok",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=10.0)
    assert results == ["fine"]
    assert rt.requests_timed_out == 0


def test_fan_out_with_one_crashed_member_raises_timeout():
    rt = make_runtime(call_timeout=1.0, servers=4)

    class SlowRelay(Relay):
        def fan_slow(self, targets):
            replies = yield All([
                Call(t, "slow_ok", timeout=0.6) for t in targets
            ])
            return replies

    rt.actor_types["relay"] = SlowRelay
    relay = rt.ref("relay", 1)
    targets = [rt.ref("grump", i) for i in range(3)]
    rt.activate(relay.id, 0)
    for i, t in enumerate(targets):
        rt.activate(t.id, i + 1)
    results = []
    rt.client_request(relay, "fan_slow", targets,
                      on_complete=lambda lat, res: results.append(res))
    # Crash one member's host mid-execution of its slow_ok.
    rt.sim.schedule(0.2, rt.fail_silo, 2)
    rt.run(until=5.0)
    assert len(results) == 1
    assert isinstance(results[0], CallTimeout)


# ----------------------------------------------------------------------
# Silo failure and state loss
# ----------------------------------------------------------------------
class Napper(Actor):
    RESUMED: list = []  # outlives the instance a crash takes away

    def nap(self, seconds):
        yield Sleep(seconds)
        Napper.RESUMED.append(self.key)
        return "done"


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_turn_parked_at_sleep_across_fail_and_restart_never_resumes(backend):
    """Stale work never runs after a crash, on either driver: the parked
    turn's wake-up finds its pending entry gone, so it neither resumes
    on the zombie activation nor answers its client — even though the
    silo is back up when the timer fires."""
    Napper.RESUMED.clear()
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=0),
                            backend=backend,
                            resilience=ResilienceConfig(call_timeout=0.2))
    with cluster:
        rt = cluster.runtime
        rt.register_actor("napper", Napper)
        cluster.start()
        ref = rt.ref("napper", "old")
        rt.activate(ref.id, 0)
        outcomes = []
        rt.client_request(ref, "nap", 0.05,
                          on_complete=lambda _lat, res: outcomes.append(res))
        cluster.run(until=rt.sim.now + 0.02)
        zombie = rt.silos[0].activations[ref.id]
        assert zombie.open_turns == 1
        rt.fail_silo(0)
        rt.restart_silo(0)
        assert not rt.silos[0].activations
        cluster.run(until=rt.sim.now + 0.4)  # past the nap and the timeout
        assert Napper.RESUMED == []
        assert len(outcomes) == 1 and isinstance(outcomes[0], CallTimeout)
        assert rt.requests_completed == 0 and rt.requests_timed_out == 1
        assert zombie.open_turns == 1  # never resumed, never completed
        # The restarted silo serves new turns as usual.
        rt.client_request(rt.ref("napper", "new"), "nap", 0.01,
                          on_complete=lambda _lat, res: outcomes.append(res))
        cluster.run(until=rt.sim.now + 0.1)
        assert outcomes[1:] == ["done"] and Napper.RESUMED == ["new"]


def test_failed_actor_reinstantiated_on_next_call():
    rt = make_runtime()
    vault = rt.ref("vault", 1)
    rt.activate(vault.id, 1)
    rt.client_request(vault, "deposit", 100)
    rt.run(until=1.0)
    rt.fail_silo(1)
    assert rt.locate(vault.id) is None
    results = []
    rt.client_request(vault, "deposit", 5,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=3.0)
    # Volatile state lost: balance restarted from zero (never persisted).
    assert results == [5]
    new_home = rt.locate(vault.id)
    assert new_home is not None and new_home != 1


def test_persisted_state_survives_failure():
    rt = make_runtime()
    vault = rt.ref("vault", 1)
    rt.activate(vault.id, 1)
    rt.client_request(vault, "deposit", 100)
    rt.run(until=1.0)
    rt.deactivate(vault.id)      # persists balance=100
    rt.run(until=1.5)
    rt.client_request(vault, "deposit", 10)   # re-activates somewhere
    rt.run(until=2.5)
    home = rt.locate(vault.id)
    rt.fail_silo(home)           # loses the +10, keeps the persisted 100
    results = []
    rt.client_request(vault, "deposit", 1,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=5.0)
    assert results == [101]


def test_placement_avoids_dead_silos():
    rt = make_runtime(servers=3)
    rt.fail_silo(1)
    for i in range(30):
        rt.client_request(rt.ref("grump", i), "ok")
    rt.run(until=5.0)
    census = rt.census()
    assert census[1] == 0
    assert census[0] + census[2] == 30


def test_restarted_silo_hosts_again():
    rt = make_runtime(servers=2)
    rt.fail_silo(1)
    rt.restart_silo(1)
    rt.activate(rt.ref("grump", 42).id, 1)
    results = []
    rt.client_request(rt.ref("grump", 42), "ok",
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=2.0)
    assert results == ["fine"]


def test_all_silos_dead_raises():
    rt = make_runtime(servers=2)
    rt.fail_silo(0)
    rt.fail_silo(1)
    with pytest.raises(RuntimeError):
        rt.pick_live_server()
