"""System-level property tests: request conservation under random churn.

Whatever sequence of client traffic, migrations, deactivations, and silo
failures the cluster experiences, every issued client request must be
accounted for: completed, rejected at admission, timed out, or still in
flight when the run stops.  (This property found the migration-parking
deadlock during development.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actor.actor import Actor
from repro.actor.calls import All, Call
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.faults.resilience import AdmissionConfig, ResilienceConfig


class Leaf(Actor):
    COMPUTE = {"work": 2e-4}

    def work(self):
        return 1


class Mid(Actor):
    def spread(self, leaves):
        acks = yield All([Call(ref, "work") for ref in leaves])
        return sum(acks)


@st.composite
def scenarios(draw):
    seed = draw(st.integers(0, 10_000))
    servers = draw(st.integers(2, 4))
    n_mid = draw(st.integers(1, 4))
    n_leaf = draw(st.integers(2, 8))
    n_requests = draw(st.integers(5, 40))
    actions = draw(st.lists(
        st.tuples(
            st.floats(0.05, 2.0),                   # when
            st.sampled_from(["migrate", "deactivate"]),
            st.integers(0, 50),                      # which actor (mod)
            st.integers(0, 3),                       # destination (mod)
        ),
        max_size=6,
    ))
    return seed, servers, n_mid, n_leaf, n_requests, actions


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_every_request_accounted_for(scenario):
    seed, servers, n_mid, n_leaf, n_requests, actions = scenario
    rt = ActorRuntime(
        ClusterConfig(num_servers=servers, seed=seed),
        resilience=ResilienceConfig(
            admission=AdmissionConfig(receiver_queue=50)))
    rt.register_actor("leaf", Leaf)
    rt.register_actor("mid", Mid)
    leaves = [rt.ref("leaf", i) for i in range(n_leaf)]
    mids = [rt.ref("mid", i) for i in range(n_mid)]

    outcomes = []
    rng = rt.rng.stream("prop.traffic")
    for i in range(n_requests):
        when = rng.uniform(0.0, 2.0)
        target = mids[i % n_mid]
        rt.sim.schedule(
            when, rt.client_request, target, "spread", leaves,
        )
        # track completion via a separate direct request with a hook
        rt.sim.schedule(
            when, rt.client_request, leaves[i % n_leaf], "work",
        )

    # churn actions: migrations and deactivations at random times
    def act(kind, idx, dest):
        all_ids = [m.id for m in mids] + [l.id for l in leaves]
        actor_id = all_ids[idx % len(all_ids)]
        location = rt.locate(actor_id)
        if location is None:
            return
        if kind == "migrate":
            rt.silos[location].migrate(actor_id, dest % servers)
        else:
            rt.silos[location].deactivate(actor_id)

    for when, kind, idx, dest in actions:
        rt.sim.schedule(when, act, kind, idx, dest)

    rt.run(until=30.0)

    issued = 2 * n_requests
    completed = rt.requests_completed
    rejected = rt.rejected_requests
    assert completed + rejected == issued
    assert rt.inflight_requests == 0  # the client table emptied too
    # the system fully drained: no stuck turns anywhere
    for silo in rt.silos:
        for activation in silo.activations.values():
            assert activation.quiescent or activation.deactivating is False
        assert not silo._pending
    assert rt.sim.pending() == 0
