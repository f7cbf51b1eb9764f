"""Unit tests for the road network substrate."""

import numpy as np
import pytest

from repro.network.road import DEFAULT_SPEED_KMH, RoadNetwork
from repro.utils.errors import GraphError


@pytest.fixture
def square() -> RoadNetwork:
    """A unit square with one diagonal."""
    net = RoadNetwork()
    for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]:
        net.add_vertex(x, y)
    net.add_edge(0, 1)
    net.add_edge(1, 2)
    net.add_edge(2, 3)
    net.add_edge(3, 0)
    net.add_edge(0, 2)  # diagonal
    return net


class TestConstruction:
    def test_counts(self, square):
        assert square.n_vertices == 4
        assert square.n_edges == 5

    def test_default_length_is_euclidean(self, square):
        eid = square.edge_between(0, 2)
        assert square.edge_length(eid) == pytest.approx(np.sqrt(2))

    def test_default_travel_time(self, square):
        eid = square.edge_between(0, 1)
        assert square.edge_travel_time(eid) == pytest.approx(1.0 / DEFAULT_SPEED_KMH * 60)

    def test_duplicate_edge_rejected(self, square):
        with pytest.raises(GraphError):
            square.add_edge(1, 0)

    def test_self_loop_rejected(self, square):
        with pytest.raises(GraphError):
            square.add_edge(2, 2)

    def test_unknown_vertex_rejected(self, square):
        with pytest.raises(GraphError):
            square.add_edge(0, 99)

    def test_from_arrays_roundtrip(self, square):
        rebuilt = RoadNetwork.from_arrays(
            square.coords,
            [square.edge_endpoints(e) for e in range(square.n_edges)],
            list(square.edge_lengths()),
        )
        assert rebuilt.n_vertices == square.n_vertices
        assert rebuilt.n_edges == square.n_edges
        assert rebuilt.edge_lengths() == pytest.approx(square.edge_lengths())


class TestTopology:
    def test_neighbors(self, square):
        nbrs = {v for v, _ in square.neighbors(0)}
        assert nbrs == {1, 2, 3}

    def test_degree(self, square):
        assert square.degree(0) == 3
        assert square.degree(1) == 2

    def test_edge_between_symmetric(self, square):
        assert square.edge_between(3, 0) == square.edge_between(0, 3)

    def test_edge_between_missing(self, square):
        assert square.edge_between(1, 3) is None


class TestDemand:
    def test_accumulate_and_weights(self, square):
        net = square.copy()
        eid = net.edge_between(0, 1)
        net.add_demand(eid, 2.0)
        net.add_demand(eid)
        assert net.edge_demand(eid) == pytest.approx(3.0)
        assert net.demand_weights()[eid] == pytest.approx(3.0 * net.edge_length(eid))

    def test_set_and_reset(self, square):
        net = square.copy()
        net.set_demand(0, 7.0)
        assert net.edge_demand(0) == 7.0
        net.reset_demand()
        assert net.demand_counts().sum() == 0.0


class TestAdjacencyListsAndExport:
    def test_to_networkx(self, square):
        g = square.to_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 5
        assert g[0][2]["length"] == pytest.approx(np.sqrt(2))

    def test_copy_is_independent(self, square):
        dup = square.copy()
        dup.add_demand(0, 5.0)
        assert square.edge_demand(0) == 0.0
