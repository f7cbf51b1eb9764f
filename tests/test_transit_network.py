"""Unit tests for the transit network substrate."""

import pytest

from repro.network.transit import TransitNetwork
from repro.utils.errors import GraphError


@pytest.fixture
def two_routes() -> TransitNetwork:
    """Two routes crossing at stop 2 (a transfer hub)."""
    t = TransitNetwork()
    for i in range(5):
        t.add_stop(float(i), 0.0, road_vertex=i)
    t.add_stop(2.0, 1.0, road_vertex=5)
    t.add_stop(2.0, -1.0, road_vertex=6)
    t.add_route("east-west", [0, 1, 2, 3, 4])
    t.add_route("north-south", [5, 2, 6])
    return t


class TestConstruction:
    def test_counts(self, two_routes):
        assert two_routes.n_stops == 7
        assert two_routes.n_edges == 6
        assert two_routes.n_routes == 2

    def test_shared_stop_routes(self, two_routes):
        assert two_routes.routes_at_stop(2) == {0, 1}

    def test_route_too_short_rejected(self, two_routes):
        with pytest.raises(GraphError):
            two_routes.add_route("bad", [0])

    def test_ensure_edge_idempotent(self, two_routes):
        before = two_routes.n_edges
        eid1 = two_routes.ensure_edge(0, 1)
        assert two_routes.n_edges == before
        assert eid1 == two_routes.edge_between(0, 1)

    def test_self_loop_rejected(self, two_routes):
        with pytest.raises(GraphError):
            two_routes.ensure_edge(3, 3)

    def test_average_route_length(self, two_routes):
        assert two_routes.average_route_length() == pytest.approx((5 + 3) / 2)


class TestAdjacency:
    def test_adjacency_is_symmetric_01(self, two_routes):
        A = two_routes.adjacency()
        assert (A != A.T).nnz == 0
        assert A.max() == 1.0
        assert A.diagonal().sum() == 0.0
        assert A.nnz == 2 * two_routes.n_edges

    def test_adjacency_lists(self, two_routes):
        adj = two_routes.adjacency_lists("hops")
        assert {v for v, _, _ in adj[2]} == {1, 3, 5, 6}


class TestRouteRemoval:
    def test_without_routes_drops_exclusive_edges(self, two_routes):
        reduced = two_routes.without_routes({1})
        assert reduced.n_routes == 1
        assert reduced.n_stops == two_routes.n_stops  # stops preserved
        assert reduced.edge_between(5, 2) is None
        assert reduced.edge_between(0, 1) is not None

    def test_without_routes_keeps_shared_edges(self):
        t = TransitNetwork()
        for i in range(3):
            t.add_stop(float(i), 0.0)
        t.add_route("a", [0, 1, 2])
        t.add_route("b", [0, 1])  # shares edge (0,1)
        reduced = t.without_routes({0})
        assert reduced.edge_between(0, 1) is not None
        assert reduced.edge_between(1, 2) is None

    def test_remove_all_routes(self, two_routes):
        reduced = two_routes.without_routes({0, 1})
        assert reduced.n_routes == 0
        assert reduced.n_edges == 0


class TestCopyAndExport:
    def test_copy_independent(self, two_routes):
        dup = two_routes.copy()
        dup.add_stop(9.0, 9.0)
        assert dup.n_stops == two_routes.n_stops + 1

    def test_add_planned_route_creates_edges(self, two_routes):
        dup = two_routes.copy()
        before = dup.n_edges
        dup.add_route("planned", [0, 5, 4])
        assert dup.n_edges == before + 2
        assert dup.n_routes == 3

    def test_to_networkx(self, two_routes):
        g = two_routes.to_networkx()
        assert g.number_of_nodes() == 7
        assert g.number_of_edges() == 6
        assert g[1][2]["routes"] == [0]

    def test_edge_road_path_default_empty(self, two_routes):
        assert two_routes.edge_road_path(0) == ()
