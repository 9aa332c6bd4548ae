"""Property test: the two turn machines agree on random call trees.

The simulator's ``Silo._advance_turn`` and the asyncio backend's
``AsyncioSilo._step`` interpret the same Call / All / Tell generator
protocol.  For any acyclic call tree — every node its own actor,
reentrant or not, reaching its children by sequential ``Call``s, one
``All``, or ``Tell``s — driven by several concurrent client requests,
both must return the same logical result, visit every actor the same
number of times, move the same number of actor messages, and complete
every client request exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, build_cluster
from repro.actor.actor import Actor
from repro.actor.calls import All, Call, Tell
from repro.actor.ids import ActorRef


class TreeNode(Actor):
    def __init__(self):
        super().__init__()
        self.visits = 0

    def run(self, mode, children):
        """``children``: ``(actor_type, key, mode, children)`` specs."""
        self.visits += 1
        calls = [Call(ActorRef(kind, key), "run", child_mode, grandchildren)
                 for kind, key, child_mode, grandchildren in children]
        results = []
        if mode == "call":
            for call in calls:
                results.append((yield call))
        elif mode == "all" and calls:
            results = yield All(calls)
        elif mode == "tell":
            for call in calls:
                yield Tell(call.target, call.method, *call.args)
        return (self.key, results)


class SerialTreeNode(TreeNode):
    REENTRANT = False


def _trees(depth: int):
    node = st.tuples(st.sampled_from(["call", "all", "tell"]), st.booleans())
    if depth == 0:
        return node.map(lambda n: (*n, ()))
    children = st.lists(_trees(depth - 1), max_size=3).map(tuple)
    return st.tuples(st.sampled_from(["call", "all", "tell"]), st.booleans(),
                     children)


def _spec(tree, key="r"):
    """Name every node by its path, so the tree is acyclic by actor."""
    mode, reentrant, children = tree
    return ("node" if reentrant else "serial", key, mode,
            tuple(_spec(child, f"{key}.{i}") for i, child in enumerate(children)))


def _size(spec) -> tuple[int, int]:
    """(calls, tells) one traversal of ``spec`` issues below its root."""
    _kind, _key, mode, children = spec
    calls = tells = 0
    for child in children:
        child_calls, child_tells = _size(child)
        calls += child_calls + (mode != "tell")
        tells += child_tells + (mode == "tell")
    return calls, tells


def _run(backend_name: str, seed: int, spec, requests: int) -> dict:
    cluster = build_cluster(ClusterConfig(num_servers=3, seed=seed),
                            backend=backend_name)
    with cluster:
        be = cluster.backend
        be.register_actor("node", TreeNode)
        be.register_actor("serial", SerialTreeNode)
        cluster.start()
        kind, key, mode, children = spec
        results = []
        for _ in range(requests):
            be.call(be.ref(kind, key), "run", mode, children,
                    on_complete=lambda _lat, res: results.append(res))
        cluster.run()
        rt = cluster.runtime
        visits = {actor_id.key: activation.instance.visits
                  for silo in rt.silos
                  for actor_id, activation in silo.activations.items()}
        if backend_name == "asyncio":
            assert rt.requests_completed == requests
            assert rt.requests_timed_out == 0 and rt.late_responses == 0
            for silo in rt.silos:
                assert not silo.pending and not silo.ready
                assert not silo.deadlines and silo.deadline_timer is None
                assert silo.open_turns == 0 and silo.queued == 0
        return {"results": results, "visits": visits,
                "messages": rt.msgs_local + rt.msgs_remote}


@given(tree=_trees(3), seed=st.integers(0, 1_000), requests=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_call_trees_agree_across_turn_machines(tree, seed, requests):
    spec = _spec(tree)
    sim = _run("sim", seed, spec, requests)
    aio = _run("asyncio", seed, spec, requests)
    assert sim == aio
    assert len(aio["results"]) == requests
    calls, tells = _size(spec)
    assert aio["messages"] == requests * (2 * calls + tells)
