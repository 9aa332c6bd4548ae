"""Property test: the two drivers of the runtime core agree on random
call trees, with random migrations and crashes between the bursts.

The simulator and the asyncio runtime drive one interpreter
(``SiloCore._advance_turn``) over the same Call / All / Tell generator
protocol.  For any acyclic call tree — every node its own actor,
reentrant or not, reaching its children by sequential ``Call``s, one
``All``, or ``Tell``s — driven in bursts of concurrent client requests,
with a random ``migrate`` or ``fail`` + ``restart`` after each burst,
both must return the same logical results, leave every actor on the
same silo with the same visit count (a migrated actor lands where its
hints say and carries its count along, a crashed one falls back to what
it last persisted), move the same number of actor messages, and
complete every client request exactly once.  Placement is by hash, so
where an actor lives does not depend on the order concurrent requests
first touched it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, build_cluster
from repro.actor.actor import Actor
from repro.actor.calls import All, Call, Tell
from repro.actor.ids import ActorRef
from repro.actor.placement import HashPlacement


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


def _nodes(spec) -> list[tuple]:
    kind, key, _mode, children = spec
    return [(kind, key)] + [n for child in children for n in _nodes(child)]


_OPS = st.one_of(
    st.none(),
    st.tuples(st.just("migrate"), st.integers(0, 39), st.integers(0, 2)),
    st.tuples(st.just("crash"), st.integers(0, 2)))


def _run(backend_name: str, seed: int, spec, bursts) -> dict:
    cluster = build_cluster(ClusterConfig(num_servers=3, seed=seed),
                            backend=backend_name)
    with cluster:
        be = cluster.backend
        be.register_actor("node", TreeNode)
        be.register_actor("serial", SerialTreeNode)
        be.set_placement(HashPlacement())
        cluster.start()
        rt = cluster.runtime
        kind, key, mode, children = spec
        nodes = _nodes(spec)
        results = []
        for requests, op in bursts:
            for _ in range(requests):
                be.client_request(be.ref(kind, key), "run", mode, children,
                                  on_complete=lambda _lat, res: results.append(res))
            cluster.run()
            if op is not None and op[0] == "migrate":
                actor_id = be.ref(*nodes[op[1] % len(nodes)]).id
                if rt.locate(actor_id) is not None:
                    rt.silos[rt.locate(actor_id)].migrate(actor_id, op[2])
            elif op is not None:
                rt.fail_silo(op[1])
                rt.restart_silo(op[1])
        visits = {actor_id.key: (silo.server_id, activation.instance.visits)
                  for silo in rt.silos
                  for actor_id, activation in silo.activations.items()}
        assert rt.requests_completed == len(results)
        assert rt.requests_timed_out == 0 and rt.late_responses == 0
        assert rt.inflight_requests == 0
        for silo in rt.silos:
            assert silo.idle
            assert all(a.quiescent for a in silo.activations.values())
            # Only answered calls' deadlines may be left, and on asyncio
            # run_until_idle leaves none, no timer and no tick.
            assert not any(entry[1] in silo._pending
                           for entry in silo._deadlines.heap)
            if backend_name == "asyncio":
                assert not silo._deadlines.heap
                assert silo._deadlines.timer is None
                assert not silo.armed   # listed for no tick
        if backend_name == "asyncio":   # no tick armed, nothing listed
            assert not rt._ticking and not rt._silos and not rt._links
        return {"results": results, "visits": visits,
                "messages": rt.msgs_local + rt.msgs_remote,
                "migrations": rt.migrations_total}


@given(tree=_trees(3), seed=st.integers(0, 1_000),
       bursts=st.lists(st.tuples(st.integers(1, 3), _OPS),
                       min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_call_trees_agree_across_turn_machines(tree, seed, bursts):
    spec = _spec(tree)
    sim = _run("sim", seed, spec, bursts)
    aio = _run("asyncio", seed, spec, bursts)
    assert sim == aio
    requests = sum(n for n, _op in bursts)
    assert len(aio["results"]) == requests
    calls, tells = _size(spec)
    assert aio["messages"] == requests * (2 * calls + tells)
