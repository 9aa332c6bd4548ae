"""Unit tests: partition views."""

from repro.core.partitioning.view import PartitionView


def test_view_local_vertices_resolve_locally_even_if_resolver_disagrees():
    view = PartitionView(
        server_id=3,
        edges={"v": {"u": 1.0}},
        locate=lambda vertex: 9,   # stale resolver says elsewhere
        size=1,
        peer_sizes={3: 1, 9: 5},
    )
    assert view.locate("v") == 3       # local knowledge wins
    assert view.locate("u") == 9       # remote falls back to the resolver


def test_view_unknown_location_is_none():
    view = PartitionView(0, {}, lambda v: None, 0, {0: 0, 1: 0})
    assert view.locate("mystery") is None


def test_view_peers_excludes_self():
    view = PartitionView(1, {}, lambda v: None, 4, {0: 3, 1: 4, 2: 5})
    assert sorted(view.peers()) == [0, 2]


def test_view_neighbors_default_empty():
    view = PartitionView(0, {"v": {"u": 2.0}}, lambda v: None, 1, {0: 1})
    assert view.neighbors("v") == {"u": 2.0}
    assert view.neighbors("unknown") == {}
