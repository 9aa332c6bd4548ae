"""Unit tests for the streaming partitioner (Stanton & Kliot [31])."""

import random
from collections import Counter

import pytest

from repro.graph.generators import clustered_graph, random_graph
from repro.graph.quality import cut_cost, max_imbalance
from repro.graph.streaming import SLACK, STREAMING_HEURISTICS, streaming_partition


def halo_graph(seed=0):
    return clustered_graph(40, 8, intra_weight=10.0, inter_edges_per_cluster=1,
                           rng=random.Random(seed))


def test_every_heuristic_covers_all_vertices():
    g = halo_graph()
    for heuristic in STREAMING_HEURISTICS:
        assignment = streaming_partition(g, 4, heuristic=heuristic,
                                         rng=random.Random(1))
        assert set(assignment) == set(g.vertices())
        assert set(assignment.values()) <= set(range(4))


def test_capacity_respected():
    g = halo_graph()
    n = g.num_vertices
    for heuristic in ("balanced", "greedy", "fennel"):
        assignment = streaming_partition(g, 4, heuristic=heuristic,
                                         rng=random.Random(2))
        sizes = Counter(assignment.values())
        assert max(sizes.values()) <= (n / 4) * (1 + SLACK) + 1


def test_balanced_heuristic_is_perfectly_balanced():
    g = random_graph(101, rng=random.Random(3))
    assignment = streaming_partition(g, 4, heuristic="balanced",
                                     rng=random.Random(4))
    assert max_imbalance(assignment, 4) <= 1


def test_greedy_beats_balanced_and_hash_on_clustered_graph():
    # Clique-shaped clusters: with random arrival order a member usually
    # finds *some* clustermate already placed (hub-and-spoke clusters
    # defeat streaming heuristics when the hub arrives late).
    g = clustered_graph(40, 6, intra_weight=10.0, inter_edges_per_cluster=1,
                        hub_and_spoke=False, rng=random.Random(0))
    cuts = {}
    for heuristic in ("balanced", "hash", "greedy", "fennel"):
        assignment = streaming_partition(g, 4, heuristic=heuristic,
                                         rng=random.Random(5))
        cuts[heuristic] = cut_cost(g, assignment)
    assert cuts["greedy"] < 0.75 * cuts["balanced"]
    assert cuts["greedy"] < 0.75 * cuts["hash"]
    assert cuts["fennel"] < cuts["balanced"]


def test_hash_is_deterministic_and_order_independent():
    g = halo_graph()
    a = streaming_partition(g, 4, heuristic="hash", rng=random.Random(1))
    order = sorted(g.vertices(), reverse=True)
    b = streaming_partition(g, 4, heuristic="hash", order=order)
    assert a == b


def test_explicit_order_honored_by_greedy():
    # BFS-like order (cluster by cluster) should give greedy near-perfect
    # locality: each cluster's members see their mates already placed.
    g = clustered_graph(16, 8, intra_weight=10.0, inter_edges_per_cluster=0)
    order = sorted(g.vertices())  # clusters are contiguous id ranges
    assignment = streaming_partition(g, 4, heuristic="greedy", order=order)
    assert cut_cost(g, assignment) <= 0.2 * g.total_weight()


def test_empty_graph():
    from repro.graph.comm_graph import CommGraph

    assert streaming_partition(CommGraph(), 4) == {}


def test_validation():
    g = halo_graph()
    with pytest.raises(ValueError):
        streaming_partition(g, 0)
    with pytest.raises(ValueError):
        streaming_partition(g, 4, heuristic="nope")
