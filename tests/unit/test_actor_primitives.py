"""Unit tests for actor identities, messages, calls, and the base class."""

import pytest

from repro.actor.actor import Actor, DEFAULT_COMPUTE
from repro.actor.calls import All, Call, Sleep
from repro.actor.ids import ActorId, ActorRef
from repro.actor.messages import Message, MessageKind, next_call_id
from repro.actor.runtime import ActorRuntime, ClusterConfig


def test_refs_compare_by_identity():
    a = ActorRef("player", 1)
    b = ActorRef("player", 1)
    c = ActorRef("player", 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "player/1"


def test_a_ref_is_its_interned_id():
    ref = ActorRef("player", 3)
    assert ref is ActorId("player", 3)
    assert ref.id is ref
    assert ref.key == 3 and ref.actor_type == "player"


def test_pickle_and_deepcopy_return_the_interned_id():
    import copy
    import pickle

    ref = ActorRef("player", ("shard", 4))
    assert pickle.loads(pickle.dumps(ref)) is ref
    assert copy.deepcopy(ref) is ref
    assert copy.deepcopy([ref, ref]) == [ref, ref]


def test_a_ref_cannot_invoke_an_actor_method_directly():
    # Interactions go through Call/Tell; a ref carries no method
    # forwarding, so `ref.method()` fails the first time it runs.
    with pytest.raises(AttributeError):
        ActorRef("player", 1).update()


def test_actor_id_str():
    assert str(ActorId("game", 7)) == "game/7"


def test_call_ids_unique_and_increasing():
    ids = [next_call_id() for _ in range(100)]
    assert len(set(ids)) == 100
    assert ids == sorted(ids)


def test_make_response_links_call():
    request = Message(
        MessageKind.CALL, ActorId("callee", 1), method="m",
        call_id=42, sender=ActorId("caller", 2), reply_to_server=3,
        created_at=1.5,
    )
    response = request.make_response("result", size=64, server_id=9)
    assert response.kind is MessageKind.RESPONSE
    assert response.call_id == 42
    assert response.reply_to_server == 3
    assert response.result == "result"
    assert response.sender == ActorId("callee", 1)
    assert response.target == ActorId("caller", 2)
    assert response.created_at == 1.5


def test_call_defaults_response_size():
    ref = ActorRef("a", 1)
    call = Call(ref, "m", size=300)
    assert call.response_size == 150
    tiny = Call(ref, "m", size=1)
    assert tiny.response_size == 64  # floor


def test_all_requires_calls():
    with pytest.raises(ValueError):
        All([])


def test_sleep_validation():
    assert Sleep(0.5).duration == 0.5
    with pytest.raises(ValueError):
        Sleep(-1.0)


class Worker(Actor):
    COMPUTE = {"fast": 1e-6}
    WAIT = {"slocking": 0.5}


class Priced(Worker):
    def fast(self):
        return 1

    def slocking(self):
        return 2

    def other(self):
        return 3


def test_a_turn_is_priced_from_the_cost_tables_or_the_default():
    """The simulator's worker stage prices a fresh turn from its class's
    ``COMPUTE`` and ``WAIT``; a method missing from them costs
    ``DEFAULT_COMPUTE`` and no wait, scaled by ``time_scale`` like the
    rest."""
    rt = ActorRuntime(ClusterConfig(num_servers=1, seed=1, time_scale=2.0))
    rt.register_actor("priced", Priced)
    worker = rt.silos[0].worker
    submit, priced = worker.submit, []

    def spy(compute, callback, *args, wait=0.0):
        priced.append((compute, wait))
        return submit(compute, callback, *args, wait=wait)

    worker.submit = spy
    for method in ("fast", "slocking", "other"):
        rt.send(rt.ref("priced", 0), method)
        rt.run()
    assert priced == [(1e-6 * 2.0, 0.0),
                      (DEFAULT_COMPUTE * 2.0, 0.5 * 2.0),
                      (DEFAULT_COMPUTE * 2.0, 0.0)]


def test_actor_requires_activation_for_id():
    w = Worker()
    with pytest.raises(RuntimeError):
        _ = w.id


def test_state_capture_excludes_runtime_fields():
    w = Worker()
    w._id = ActorId("worker", 1)
    w.counter = 5
    state = w.capture_state()
    assert state == {"counter": 5}
    fresh = Worker()
    fresh.restore_state(state)
    assert fresh.counter == 5


def test_self_ref_round_trip():
    w = Worker()
    w._id = ActorId("worker", 9)
    assert w.self_ref().id == ActorId("worker", 9)
    assert w.key == 9
