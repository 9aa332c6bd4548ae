"""The runtime race/determinism sanitizer.

Covers the acceptance-criteria scenarios: a deliberately injected
same-instant cross-activation write/write race is caught, salted-hash
iteration-order dependence is caught, and instrumentation leaves no
trace once disarmed.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.actor import ids
from repro.actor.actor import Actor
from repro.actor.ids import ActorId
from repro.analysis.sanitizer import Sanitizer, current, detect_order_dependence


class Scoreboard(Actor):
    COMPUTE = {"bump": 1e-4}

    def bump(self):
        self.count = getattr(self, "count", 0) + 1
        return self.count


def _bound(key: int = 0) -> Scoreboard:
    actor = Scoreboard()
    actor._id = ActorId("scoreboard", key)
    return actor


# ----------------------------------------------------------------------
# Conflict detection
# ----------------------------------------------------------------------
def test_same_instant_cross_activation_write_write_race_is_caught():
    san = Sanitizer()
    with san.armed():
        victim = _bound()
        # Two activations write the same field with no sim attached, so
        # both land at logical time 0.0 — the injected race.
        san.push_context("activation:scoreboard/0")
        victim.score = 1
        san.pop_context()
        san.push_context("activation:game/7")
        victim.score = 2
        san.pop_context()
    (conflict,) = san.conflicts()
    assert conflict.owner == ActorId("scoreboard", 0)
    assert conflict.field == "score"
    accessors = {a for a, _ in conflict.accesses}
    assert accessors == {"activation:scoreboard/0", "activation:game/7"}
    assert not san.report()["ok"]
    assert "scoreboard" in conflict.render()


def test_write_read_across_contexts_is_a_conflict():
    san = Sanitizer()
    with san.armed():
        victim = _bound()
        san.push_context("activation:scoreboard/0")
        victim.score = 1
        san.pop_context()
        san.push_context("stage:worker")
        _ = victim.score
        san.pop_context()
    (conflict,) = san.conflicts()
    assert dict(conflict.accesses)["stage:worker"] == "read"


def test_single_context_accesses_are_not_conflicts():
    san = Sanitizer()
    with san.armed():
        actor = _bound()
        san.push_context("activation:scoreboard/0")
        actor.score = 1
        actor.score = actor.score + 1
        san.pop_context()
    assert san.conflicts() == []
    assert san.report()["ok"]


def test_unbound_actor_state_is_ignored():
    san = Sanitizer()
    with san.armed():
        loose = Scoreboard()  # never bound: _id is None
        loose.score = 1
        loose.score = 2
    assert san.accesses == 0


def test_rng_same_instant_draws_are_hazards_not_failures():
    san = Sanitizer()
    with san.armed():
        rng = san.wrap_rng("network.jitter", random.Random(1))
        san.push_context("stage:client_sender")
        rng.random()
        san.pop_context()
        san.push_context("stage:server_sender")
        rng.random()
        san.pop_context()
    report = san.report()
    assert report["ok"] and report["conflicts"] == []
    assert len(report["rng_hazards"]) == 1
    assert report["rng_hazards"][0]["owner"] == "rng:network.jitter"
    assert report["rng_draws"] == {"network.jitter": 2}


# ----------------------------------------------------------------------
# Arming discipline / zero-trace disarm
# ----------------------------------------------------------------------
def test_arm_is_exclusive_and_disarm_clears_the_hooks():
    base_setattr = Actor.__dict__.get("__setattr__")
    san = Sanitizer()
    with san.armed():
        assert current() is san
        with pytest.raises(RuntimeError):
            Sanitizer().arm()
        assert Actor.__dict__.get("__setattr__") is not base_setattr
    assert current() is None
    assert Actor.__dict__.get("__setattr__") is base_setattr


# Arming before the build reaches every RNG stream and every asyncio
# silo created afterwards; the simulator's silos and stages wait for
# wire().  Disarm restores both.  In a fresh interpreter, so nothing
# another test armed or imported can stand in for what arming sets.
_ARM_BEFORE_BUILD = """
import random
from repro import ClusterConfig, Sanitizer, build_cluster
from repro.actor.core import ClusterCore
from repro.sim.rng import RngRegistry

def wrapped(rng):
    return type(rng) is not random.Random

san = Sanitizer().arm()
sim = build_cluster(ClusterConfig(num_servers=2, seed=1))
aio = build_cluster(ClusterConfig(num_servers=2, seed=1), backend="asyncio")
for cluster in (sim, aio):
    registry = cluster.runtime.rng
    assert registry._streams and all(map(wrapped, registry._streams.values()))
    assert wrapped(registry.stream("created.later"))
assert all(silo._san is san for silo in aio.runtime.silos)
assert all(silo._san is None for silo in sim.runtime.silos)
san.wire(sim)
assert all(silo._san is san for silo in sim.runtime.silos)
san.disarm()
assert RngRegistry._san is None and ClusterCore._san is None
for cluster in (sim, aio):
    assert not wrapped(cluster.runtime.rng.stream("after.disarm"))
    assert all(silo._san is None for silo in cluster.runtime.silos)
with build_cluster(ClusterConfig(num_servers=2, seed=1), backend="asyncio") as late:
    assert all(silo._san is None for silo in late.runtime.silos)
    assert not any(map(wrapped, late.runtime.rng._streams.values()))
aio.shutdown()
print("ok")
"""


def test_arming_before_the_build_reaches_streams_and_asyncio_silos():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    proc = subprocess.run([sys.executable, "-c", _ARM_BEFORE_BUILD],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_disarmed_actor_writes_are_unrecorded():
    san = Sanitizer()
    with san.armed():
        pass
    actor = _bound()
    actor.score = 1
    assert san.accesses == 0


def test_events_seen_is_the_engines_count_since_wire():
    from repro.bench.harness import HaloExperiment

    san = Sanitizer()
    with san.armed():
        exp = HaloExperiment(players=40, num_servers=2, seed=5)
        exp.workload.start()
        exp.cluster.start()
        rt = exp.runtime
        rt.run(until=0.5)                  # before wire(): not counted
        san.wire(exp.cluster)
        start = rt.sim.events_processed
        rt.run(until=1.0)
        window = rt.sim.events_processed - start
        assert window > 0 and san.report()["events_seen"] == window
    assert san.report()["events_seen"] == window


def test_report_schema():
    report = Sanitizer().report()
    assert set(report) == {"ok", "events_seen", "accesses", "distinct_sites",
                           "rng_draws", "conflicts", "rng_hazards",
                           "payload_events"}
    assert report["ok"] is True
    assert report["payload_events"] == []


def test_payload_events_fail_the_report():
    # Nothing downstream adjudicates these any more: a payload that is
    # shared on one transport and copied (or dropped) on another is a
    # failed run, like a conflict.
    san = Sanitizer()
    san.record_payload_alias("RosterActor", "broadcast", "self.members")
    san.record_unpicklable_payload("StreamActor", "publish", "generator")
    report = san.report()
    assert report["conflicts"] == [] and report["ok"] is False
    kinds = [(e["kind"], e["sender"], e["method"])
             for e in report["payload_events"]]
    assert kinds == [("alias", "RosterActor", "broadcast"),
                     ("unpicklable", "StreamActor", "publish")]


# ----------------------------------------------------------------------
# Salted-hash order-dependence probe
# ----------------------------------------------------------------------
def test_order_probe_flags_set_iteration_of_actor_ids():
    def unordered():
        bucket = {ActorId("player", i) for i in range(32)}
        return tuple(bucket)

    probe = detect_order_dependence(unordered)
    assert probe.order_dependent
    assert probe.divergent_salts
    assert probe.to_dict()["order_dependent"] is True
    # The probe always restores unsalted (identity) hashing.
    assert "__hash__" not in vars(ActorId)


def test_order_probe_clean_on_sorted_iteration():
    def ordered():
        bucket = {ActorId("player", i) for i in range(32)}
        return tuple(sorted(bucket))

    probe = detect_order_dependence(ordered)
    assert not probe.order_dependent
    assert probe.baseline == ordered()
    assert len(probe.salts_tried) == 2


def test_salted_hash_is_identity_preserving():
    a = ActorId("game", 3)
    plain = hash(a)
    assert hash(a) == plain == hash(ActorId("game", 3))  # stable in-process
    ids.set_hash_salt(0x9E3779B9)
    try:
        b = ActorId("game", 3)
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1
        assert hash(a) != plain
    finally:
        ids.set_hash_salt(0)
    # Salt 0 deletes the salted hash: ids hash by identity again.
    assert "__hash__" not in vars(ActorId)
    assert hash(a) == plain == object.__hash__(a)
