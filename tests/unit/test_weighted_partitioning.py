"""Unit tests for the §4.2 extension: actor sizes and migration costs."""

import random

import pytest

from repro.core.partitioning.candidate import Candidate, candidate_set
from repro.core.partitioning.exchange import greedy_exchange
from repro.core.partitioning.offline import OfflinePartitioner
from repro.core.partitioning.view import PartitionView
from repro.graph.generators import clustered_graph
from repro.graph.quality import remote_fraction


def make_view(server_id, edges, locations, loads, sizes, penalty=0.0):
    return PartitionView(
        server_id=server_id,
        edges=edges,
        locate=locations.get,
        size=loads.get(server_id, 0),
        peer_sizes=loads,
        sizes=sizes,
        migration_penalty=penalty,
    )


def test_migration_penalty_filters_heavy_actors():
    edges = {"light": {"r": 5.0}, "heavy": {"r": 5.0}}
    locations = {"r": 1}
    sizes = {"light": 1.0, "heavy": 100.0}
    view = make_view(0, edges, locations, {0: 2, 1: 1}, sizes, penalty=0.1)
    cands = candidate_set(view, 1, 1000.0)
    names = [c.vertex for c in cands]
    assert "light" in names      # 5 - 0.1 > 0
    assert "heavy" not in names  # 5 - 10 < 0


def test_size_budget_limits_candidate_mass():
    edges = {f"v{i}": {"r": 10.0 - i} for i in range(5)}
    locations = {"r": 1}
    sizes = {f"v{i}": 3.0 for i in range(5)}
    view = make_view(0, edges, locations, {0: 5, 1: 0}, sizes)
    cands = candidate_set(view, 1, 7.0)
    # 3.0 each: only two fit in a budget of 7.
    assert len(cands) == 2
    assert [c.vertex for c in cands] == ["v0", "v1"]


def test_zero_budget_empty():
    view = make_view(0, {"v": {"r": 1.0}}, {"r": 1}, {0: 1, 1: 0}, {"v": 1.0})
    assert candidate_set(view, 1, 0.0) == []


def test_exchange_balance_in_size_units():
    # One big actor (size 10) vs small ones; delta=5 in size units.
    s = [Candidate("big", 9.0)]
    t = [Candidate("small", 8.0)]
    sizes = {"big": 10.0, "small": 1.0}
    out = greedy_exchange(s, t, size_p=20.0, size_q=20.0, delta=5.0,
                          vertex_sizes=sizes)
    # Moving big first: gap |10-30+...| -> 20 > 5, blocked; small q->p:
    # gap |21-19|=2 OK; then big p->q: |11-29|=18 blocked still.
    assert out.accepted == []
    assert out.returned == ["small"]


def test_exchange_swaps_equal_sizes():
    s = [Candidate("a", 9.0)]
    t = [Candidate("b", 8.0)]
    sizes = {"a": 4.0, "b": 4.0}
    out = greedy_exchange(s, t, size_p=20.0, size_q=20.0, delta=8.0,
                          vertex_sizes=sizes)
    assert out.accepted == ["a"]
    assert out.returned == ["b"]


def test_weighted_offline_balances_by_size():
    rng = random.Random(0)
    g = clustered_graph(12, 6, intra_weight=10.0, inter_edges_per_cluster=1,
                        rng=rng)
    sizes = {v: (5.0 if v % 6 == 0 else 1.0) for v in g.vertices()}  # hubs big
    part = OfflinePartitioner(
        g, num_servers=4, delta=8.0, k=24.0, sizes=sizes,
        migration_penalty=0.05, seed=1,
    )
    initial_imbalance = part.imbalance
    part.run(max_sweeps=40)
    # cost decreased monotonically
    history = part.cost_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]
    # clusters substantially co-located
    assert remote_fraction(g, part.assignment) < 0.35
    # size balance stayed bounded
    assert part.imbalance <= max(2 * 8.0, initial_imbalance)
    assert part.total_migrated_size > 0


def test_weighted_offline_high_penalty_freezes_heavy_graph():
    rng = random.Random(2)
    g = clustered_graph(6, 5, intra_weight=1.0, inter_edges_per_cluster=0,
                        rng=rng)
    sizes = {v: 50.0 for v in g.vertices()}
    part = OfflinePartitioner(
        g, num_servers=3, delta=100.0, k=500.0, sizes=sizes,
        migration_penalty=1.0, seed=3,   # penalty 50 per move >> scores
    )
    before = dict(part.assignment)
    part.run(max_sweeps=10)
    assert part.assignment == before  # nothing worth hauling


def test_weighted_offline_validation():
    g = clustered_graph(2, 4)
    with pytest.raises(ValueError):
        OfflinePartitioner(g, num_servers=1, delta=1.0, k=4.0, sizes={})
