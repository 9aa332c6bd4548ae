"""Property tests for the size-aware exchange and driver (§4.2 extension)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.exchange import greedy_exchange
from repro.core.partitioning.offline import OfflinePartitioner
from repro.graph.generators import clustered_graph, power_law_graph, random_graph

from .weighted_reference import WeightedOfflinePartitioner


@st.composite
def weighted_instances(draw):
    n_s = draw(st.integers(0, 6))
    n_t = draw(st.integers(0, 6))
    s = [Candidate(f"s{i}", draw(st.floats(-5, 10, allow_nan=False)))
         for i in range(n_s)]
    t = [Candidate(f"t{i}", draw(st.floats(-5, 10, allow_nan=False)))
         for i in range(n_t)]
    sizes = {
        c.vertex: draw(st.floats(0.5, 8.0, allow_nan=False))
        for c in s + t
    }
    size_p = draw(st.floats(0.0, 80.0, allow_nan=False))
    size_q = draw(st.floats(0.0, 80.0, allow_nan=False))
    delta = draw(st.floats(0.0, 20.0, allow_nan=False))
    return s, t, sizes, size_p, size_q, delta


@given(weighted_instances())
@settings(max_examples=200, deadline=None)
def test_weighted_balance_never_worsened_beyond_delta(instance):
    s, t, sizes, size_p, size_q, delta = instance
    out = greedy_exchange(s, t, size_p, size_q, delta, vertex_sizes=sizes)
    moved_q = sum(sizes[v] for v in out.accepted)
    moved_p = sum(sizes[v] for v in out.returned)
    final_gap = abs((size_p - moved_q + moved_p) - (size_q + moved_q - moved_p))
    if abs(size_p - size_q) <= delta:
        assert final_gap <= delta + 1e-9
    else:
        # started violated: the procedure may only shrink or hold the gap
        assert final_gap <= abs(size_p - size_q) + 1e-9


@given(weighted_instances())
@settings(max_examples=200, deadline=None)
def test_weighted_matches_unit_sizes_when_uniform(instance):
    s, t, _, size_p, size_q, delta = instance
    uniform = {c.vertex: 1.0 for c in s + t}
    a = greedy_exchange(s, t, int(size_p), int(size_q), delta)
    b = greedy_exchange(s, t, int(size_p), int(size_q), delta,
                        vertex_sizes=uniform)
    assert a.accepted == b.accepted
    assert a.returned == b.returned


@st.composite
def sized_instances(draw):
    """A static graph (clustered, random or power-law) with mixed actor
    sizes, a penalty in [0, 1], a size budget in [0, 60] and a size δ."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    shape = draw(st.sampled_from(["clustered", "random", "power_law"]))
    if shape == "clustered":
        graph = clustered_graph(draw(st.integers(2, 6)), draw(st.integers(2, 6)),
                                inter_edges_per_cluster=draw(st.integers(0, 2)),
                                rng=rng)
    elif shape == "random":
        graph = random_graph(draw(st.integers(10, 36)),
                             mean_degree=draw(st.floats(1.0, 4.0)), rng=rng)
    else:
        graph = power_law_graph(draw(st.integers(6, 36)),
                                attach=draw(st.integers(1, 3)), rng=rng)
    sizes = {v: rng.choice((0.5, 1.0, 1.0, 2.0, 5.0, 20.0))
             for v in graph.vertices()}
    servers = draw(st.integers(2, 5))
    return dict(
        graph=graph, sizes=sizes, num_servers=servers,
        delta=draw(st.floats(0.0, 40.0)), budget=draw(st.floats(0.0, 60.0)),
        penalty=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 1000)),
        initial=draw(st.booleans()) and {
            v: rng.randrange(servers) for v in graph.vertices()},
    )


@given(sized_instances())
@settings(max_examples=200, deadline=None)
def test_sized_driver_matches_reference(instance):
    """The sized OfflinePartitioner is the separate §4.2 driver it
    replaced, move for move."""
    i = instance
    initial = i["initial"] or None
    reference = WeightedOfflinePartitioner(
        i["graph"], i["sizes"], i["num_servers"], size_delta=i["delta"],
        size_budget=i["budget"], migration_penalty=i["penalty"],
        seed=i["seed"], initial=initial)
    part = OfflinePartitioner(
        i["graph"], i["num_servers"], delta=i["delta"], k=i["budget"],
        seed=i["seed"], initial=initial, sizes=i["sizes"],
        migration_penalty=i["penalty"])
    assert part.assignment == reference.assignment
    reference.run(max_sweeps=20)
    part.run(max_sweeps=20)
    assert part.assignment == reference.assignment
    assert part.cost_history == reference.cost_history
    assert part.imbalance == reference.size_imbalance
    assert part.total_migrated_size == reference.total_migrated_size


@given(sized_instances(), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_unit_sizes_match_unsized_driver(instance, k):
    """Sizes all 1.0 and no penalty: the sized path is the count path."""
    i = instance
    graph, servers = i["graph"], i["num_servers"]
    initial = i["initial"] or {v: v % servers for v in graph.vertices()}
    delta = int(i["delta"])
    unsized = OfflinePartitioner(graph, servers, delta=delta, k=k,
                                 seed=i["seed"], initial=initial)
    sized = OfflinePartitioner(graph, servers, delta=delta, k=k,
                               seed=i["seed"], initial=initial,
                               sizes=dict.fromkeys(graph.vertices(), 1.0))
    unsized.run(max_sweeps=20)
    sized.run(max_sweeps=20)
    assert sized.assignment == unsized.assignment
    assert sized.cost_history == unsized.cost_history
    assert sized.total_migrations == unsized.total_migrations
    assert sized.imbalance == unsized.imbalance
