"""Unit tests for CommGraph."""

import pytest

from repro.graph.comm_graph import CommGraph


def test_add_edge_creates_vertices_and_symmetry():
    g = CommGraph()
    g.add_edge("a", "b", 2.0)
    assert "a" in g and "b" in g
    assert g.weight("a", "b") == 2.0
    assert g.weight("b", "a") == 2.0
    assert g.num_edges == 1


def test_repeated_add_accumulates_weight():
    g = CommGraph()
    g.add_edge(1, 2, 1.0)
    g.add_edge(1, 2, 3.0)
    assert g.weight(1, 2) == 4.0
    assert g.num_edges == 1


def test_self_loop_rejected():
    g = CommGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a")


def test_nonpositive_weight_rejected():
    g = CommGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "b", 0.0)


def test_degree_is_weighted():
    g = CommGraph()
    g.add_edge("hub", "x", 2.0)
    g.add_edge("hub", "y", 3.0)
    assert g.degree("hub") == 5.0
    assert g.degree("x") == 2.0


def test_edges_yields_each_once():
    g = CommGraph()
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 2.0)
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in g.edges())
    assert edges == [(1, 2, 1.0), (2, 3, 2.0)]
    assert g.total_weight() == 3.0


def test_isolated_vertex():
    g = CommGraph()
    g.add_vertex("lonely")
    assert "lonely" in g
    assert g.degree("lonely") == 0.0
    assert g.num_vertices == 1


def test_unknown_weight_is_zero():
    g = CommGraph()
    g.add_vertex(1)
    assert g.weight(1, 99) == 0.0
    assert g.weight(98, 99) == 0.0
