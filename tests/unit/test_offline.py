"""Unit tests for the offline driver — Theorem 1's claims on static graphs."""

import random

import pytest

from repro.core.partitioning.offline import OfflinePartitioner
from repro.graph.generators import clustered_graph, random_graph, ring_of_cliques
from repro.graph.quality import cut_cost, remote_fraction


def test_cost_monotonically_decreases():
    g = clustered_graph(10, 6, intra_weight=10.0, inter_edges_per_cluster=1,
                        rng=random.Random(0))
    part = OfflinePartitioner(g, num_servers=4, delta=4, k=16, seed=1)
    part.run(max_sweeps=30)
    history = part.cost_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]


def test_converges_to_quiet_state():
    g = clustered_graph(8, 5, inter_edges_per_cluster=1, rng=random.Random(1))
    part = OfflinePartitioner(g, num_servers=4, delta=4, k=16, seed=2)
    part.run(max_sweeps=50)
    # Once converged, a full extra sweep moves nothing.
    moved = sum(part.run_round(p) for p in range(4))
    assert moved == 0


def test_balance_maintained_throughout():
    """Each exchange enforces |Vp - Vq| <= delta for the participating
    pair.  That alone does not bound the global max-min spread by delta
    (a server can gain from several different peers before any of them
    notices), but it does keep the spread within a small multiple — we
    assert 2*delta, which holds robustly in practice."""
    g = random_graph(120, mean_degree=6.0, rng=random.Random(2))
    part = OfflinePartitioner(g, num_servers=4, delta=4, k=8, seed=3)
    assert part.imbalance <= 4
    for _ in range(20):
        for p in range(4):
            part.run_round(p)
            assert part.imbalance <= 2 * 4


def test_strong_improvement_on_clustered_graph():
    g = clustered_graph(20, 8, intra_weight=10.0, inter_edges_per_cluster=1,
                        rng=random.Random(3))
    part = OfflinePartitioner(g, num_servers=4, delta=8, k=32, seed=4)
    before = remote_fraction(g, part.assignment)
    part.run(max_sweeps=40)
    after = remote_fraction(g, part.assignment)
    assert before > 0.6          # random start: ~75% cross-server
    assert after < 0.25 * before  # clusters co-located


def test_finds_near_optimum_on_ring_of_cliques():
    g = ring_of_cliques(8, 6, bridge_weight=1.0, clique_weight=5.0)
    part = OfflinePartitioner(g, num_servers=4, delta=2, k=24, seed=5)
    part.run(max_sweeps=60)
    # Local optimum may keep a few clique edges cut, but the bulk of the
    # structure must be found (random cut is ~186 of 248 total weight).
    assert cut_cost(g, part.assignment) < 50.0


def test_respects_initial_assignment():
    g = ring_of_cliques(4, 4)
    initial = {v: v % 2 for v in g.vertices()}
    part = OfflinePartitioner(g, num_servers=2, initial=initial)
    assert part.assignment == initial


def test_initial_assignment_must_cover_graph():
    g = ring_of_cliques(4, 4)
    with pytest.raises(ValueError):
        OfflinePartitioner(g, num_servers=2, initial={0: 0})


def test_needs_two_servers():
    g = ring_of_cliques(4, 4)
    with pytest.raises(ValueError):
        OfflinePartitioner(g, num_servers=1)


def test_migration_counter_tracks_moves():
    g = clustered_graph(6, 5, inter_edges_per_cluster=0, rng=random.Random(5))
    part = OfflinePartitioner(g, num_servers=3, delta=4, k=16, seed=7)
    part.run(max_sweeps=30)
    assert part.total_migrations > 0
    assert part.total_migrations == sum(
        1 for _ in part.cost_history[1:]
    ) or part.total_migrations >= len(part.cost_history) - 1
