"""Unit tests for the centralized multilevel partitioner."""

import random

from repro.graph.comm_graph import CommGraph
from repro.graph.generators import clustered_graph, random_graph, ring_of_cliques
from repro.graph.multilevel import multilevel_partition
from repro.graph.quality import cut_cost, partition_sizes


def test_covers_every_vertex():
    g = random_graph(200, rng=random.Random(0))
    assignment = multilevel_partition(g, 4)
    assert set(assignment) == set(g.vertices())
    assert set(assignment.values()) <= {0, 1, 2, 3}


def test_single_part_trivial():
    g = random_graph(20, rng=random.Random(0))
    assignment = multilevel_partition(g, 1)
    assert set(assignment.values()) == {0}


def test_balance_within_tolerance():
    g = random_graph(400, rng=random.Random(1))
    assignment = multilevel_partition(g, 4)
    sizes = partition_sizes(assignment)
    cap = (400 / 4) * 1.05 + 1
    assert all(s <= cap for s in sizes.values())


def test_beats_random_assignment_on_clustered_graph():
    g = clustered_graph(16, 8, intra_weight=10.0, inter_edges_per_cluster=1,
                        rng=random.Random(2))
    rng = random.Random(3)
    vertices = list(g.vertices())
    rng.shuffle(vertices)
    random_assign = {v: i % 4 for i, v in enumerate(vertices)}
    ml_assign = multilevel_partition(g, 4, rng=random.Random(4))
    assert cut_cost(g, ml_assign) < 0.4 * cut_cost(g, random_assign)


def test_near_optimal_on_ring_of_cliques():
    # 8 cliques of 6, 4 parts: the optimum cuts 4 bridges (weight 4.0).
    g = ring_of_cliques(8, 6, bridge_weight=1.0, clique_weight=5.0)
    assignment = multilevel_partition(g, 4, rng=random.Random(5))
    # Allow slack (the heuristic is not exact) but demand it finds the
    # clique structure: never cut clique edges beyond a couple.
    assert cut_cost(g, assignment) <= 14.0


def test_handles_disconnected_graph():
    g = CommGraph()
    for i in range(10):
        g.add_vertex(i)
    g.add_edge(0, 1)
    g.add_edge(5, 6)
    assignment = multilevel_partition(g, 2)
    assert len(assignment) == 10


def test_deterministic_given_rng():
    g = random_graph(150, rng=random.Random(9))
    a = multilevel_partition(g, 3, rng=random.Random(1))
    b = multilevel_partition(g, 3, rng=random.Random(1))
    assert a == b
