"""Unit tests for the shortest-path forest, cross-checked against networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import SynthConfig, generate_road_network
from repro.network import shortest_path as sp_mod
from repro.network.shortest_path import (
    PathForest,
    path_weight,
    reconstruct_edge_path,
    reconstruct_vertex_path,
)
from repro.utils.errors import GraphError


@pytest.fixture(scope="module")
def road():
    return generate_road_network(SynthConfig(grid_width=8, grid_height=6, seed=3))


@pytest.fixture(scope="module")
def forest(road):
    return PathForest(road.n_vertices, road.edge_list())


@pytest.fixture(scope="module")
def nx_graph(road):
    return road.to_networkx()


def length_tree(road, forest, origin):
    """``(dist, pred_v, pred_e)`` of one origin's tree over road lengths."""
    ((_, dist, pred_v, pred_e),) = forest.trees(road.edge_lengths(), [origin])
    return dist, pred_v, pred_e


class TestDijkstra:
    def test_matches_networkx_all_targets(self, road, forest, nx_graph):
        dist, _, _ = length_tree(road, forest, 0)
        want = nx.single_source_dijkstra_path_length(nx_graph, 0, weight="length")
        for v in range(road.n_vertices):
            if v in want:
                assert dist[v] == pytest.approx(want[v])
            else:
                assert math.isinf(dist[v])

    def test_source_distance_zero(self, road, forest):
        dist, pred_v, pred_e = length_tree(road, forest, 5)
        assert dist[5] == 0.0
        assert pred_v[5] == -1 and pred_e[5] == -1

    def test_bad_source_rejected(self, road, forest):
        with pytest.raises(GraphError):
            list(forest.trees(road.edge_lengths(), [road.n_vertices + 10]))


class TestReconstruction:
    def test_vertex_path_endpoints(self, road, forest):
        target = road.n_vertices - 1
        dist, pred_v, pred_e = length_tree(road, forest, 0)
        path = reconstruct_vertex_path(pred_v, 0, target)
        assert path[0] == 0 and path[-1] == target
        edges = reconstruct_edge_path(pred_v, pred_e, 0, target)
        assert len(edges) == len(path) - 1
        # Edge path length equals the reported distance.
        total = sum(road.edge_length(e) for e in edges)
        assert total == pytest.approx(dist[target])

    def test_path_to_self(self, road, forest):
        _, pred_v, pred_e = length_tree(road, forest, 2)
        assert reconstruct_vertex_path(pred_v, 2, 2) == [2]
        assert reconstruct_edge_path(pred_v, pred_e, 2, 2) == []

    def test_unreachable_gives_empty(self):
        # Two isolated vertices.
        ((_, dist, pred_v, pred_e),) = PathForest(2, []).trees([], [0])
        assert math.isinf(dist[1])
        assert reconstruct_vertex_path(pred_v, 0, 1) == []
        assert reconstruct_edge_path(pred_v, pred_e, 0, 1) == []


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, with float weights."""
    n = draw(st.integers(1, 12))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        extra = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        ))
        pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = sorted(pairs)
    weights = draw(st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=len(edges), max_size=len(edges)
    ))
    origins = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, edges, weights, origins


class TestShortestPathForest:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_matches_dijkstra_and_walks_real_paths(self, graph):
        # Any correct Dijkstra returns, per vertex, the least left-fold sum
        # over its paths, so networkx's distances must match bit for bit.
        n, edges, weights, origins = graph
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_weighted_edges_from(
            (u, v, w) for (u, v), w in zip(edges, weights)
        )
        rows = list(PathForest(n, edges).trees(weights, origins))
        assert [row[0] for row in rows] == origins
        for origin, dist, pred_v, pred_e in rows:
            want = nx.single_source_dijkstra_path_length(reference, origin)
            assert dist == [want[v] for v in range(n)]
            for v in range(n):
                vertices = reconstruct_vertex_path(pred_v, origin, v)
                edge_path = reconstruct_edge_path(pred_v, pred_e, origin, v)
                assert vertices[0] == origin and vertices[-1] == v
                assert len(edge_path) == len(vertices) - 1
                for a, b, eid in zip(vertices, vertices[1:], edge_path):
                    assert edges[eid] == (min(a, b), max(a, b))
                assert path_weight(weights, edge_path) == dist[v]

    def test_rows_do_not_depend_on_block_size(self, road, forest, monkeypatch):
        origins = list(range(road.n_vertices))[::-1]
        whole = list(forest.trees(road.edge_lengths(), origins))
        monkeypatch.setattr(sp_mod, "FOREST_BLOCK", 5)
        assert list(forest.trees(road.edge_lengths(), origins)) == whole

    def test_one_forest_serves_many_weightings(self, road, forest):
        origins = [0, road.n_vertices - 1]
        for scale in (1.0, 0.5, 3.0):
            weights = road.edge_lengths() * scale
            fresh = PathForest(road.n_vertices, road.edge_list())
            assert list(forest.trees(weights, origins)) == list(
                fresh.trees(weights, origins)
            )

    def test_unreachable_vertex(self):
        (row,) = PathForest(3, [(0, 1)]).trees([1.0], [0])
        _, dist, pred_v, pred_e = row
        assert dist == [0.0, 1.0, math.inf]
        assert pred_v == [-1, 0, -1] and pred_e == [-1, 0, -1]
        assert reconstruct_edge_path(pred_v, pred_e, 0, 2) == []
        assert reconstruct_vertex_path(pred_v, 0, 2) == []

    def test_zero_length_edge_stays_an_edge(self):
        (row,) = PathForest(3, [(0, 1), (1, 2)]).trees([0.0, 1.5], [0])
        _, dist, pred_v, pred_e = row
        assert dist == [0.0, 0.0, 1.5]
        assert pred_v == [-1, 0, 1] and pred_e == [-1, 0, 1]
        assert reconstruct_edge_path(pred_v, pred_e, 0, 2) == [0, 1]

    def test_empty_origin_list(self):
        assert list(PathForest(3, [(0, 1)]).trees([1.0], [])) == []

    @pytest.mark.parametrize("origin", [-1, 3])
    def test_bad_origin_rejected(self, origin):
        with pytest.raises(GraphError):
            list(PathForest(3, [(0, 1)]).trees([1.0], [0, origin]))

    @pytest.mark.parametrize("weights", [[], [1.0, 2.0]])
    def test_one_weight_per_edge(self, weights):
        with pytest.raises(GraphError):
            list(PathForest(3, [(0, 1)]).trees(weights, [0]))
