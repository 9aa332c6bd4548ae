"""The runtime race/determinism sanitizer.

Covers the acceptance-criteria scenarios: a deliberately injected
same-instant cross-activation write/write race is caught, salted-hash
iteration-order dependence is caught, and instrumentation leaves no
trace once disarmed.
"""

import random

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
    actor._bind(ActorId("scoreboard", key), server_id=0)
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


def test_disarmed_actor_writes_are_unrecorded():
    san = Sanitizer()
    with san.armed():
        pass
    actor = _bound()
    actor.score = 1
    assert san.accesses == 0


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
