"""Unit tests for the Dijkstra engines, cross-checked against networkx."""

import importlib
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import SynthConfig, generate_road_network
from repro.network.shortest_path import (
    bidirectional_dijkstra,
    dijkstra,
    path_weight,
    reconstruct_edge_path,
    reconstruct_vertex_path,
    shortest_path,
    shortest_path_forest,
)
from repro.utils.errors import GraphError

# The package re-exports a function named shortest_path, which shadows the
# submodule as an attribute of repro.network.
sp_mod = importlib.import_module("repro.network.shortest_path")


@pytest.fixture(scope="module")
def road():
    return generate_road_network(SynthConfig(grid_width=8, grid_height=6, seed=3))


@pytest.fixture(scope="module")
def adj(road):
    return road.adjacency_lists("length")


@pytest.fixture(scope="module")
def nx_graph(road):
    return road.to_networkx()


class TestDijkstra:
    def test_matches_networkx_all_targets(self, road, adj, nx_graph):
        dist, _, _ = dijkstra(adj, 0)
        want = nx.single_source_dijkstra_path_length(nx_graph, 0, weight="length")
        for v in range(road.n_vertices):
            if v in want:
                assert dist[v] == pytest.approx(want[v])
            else:
                assert math.isinf(dist[v])

    def test_source_distance_zero(self, adj):
        dist, pred_v, pred_e = dijkstra(adj, 5)
        assert dist[5] == 0.0
        assert pred_v[5] == -1 and pred_e[5] == -1

    def test_early_termination_with_targets(self, adj):
        dist, _, _ = dijkstra(adj, 0, targets=[1])
        assert not math.isinf(dist[1])

    def test_cutoff_prunes(self, adj):
        dist, _, _ = dijkstra(adj, 0, cutoff=0.3)
        finite = [d for d in dist if not math.isinf(d)]
        assert all(d <= 0.3 for d in finite)

    def test_bad_source_rejected(self, adj):
        with pytest.raises(GraphError):
            dijkstra(adj, len(adj) + 10)


class TestReconstruction:
    def test_vertex_path_endpoints(self, road, adj):
        target = road.n_vertices - 1
        dist, pred_v, pred_e = dijkstra(adj, 0)
        path = reconstruct_vertex_path(pred_v, 0, target)
        assert path[0] == 0 and path[-1] == target
        edges = reconstruct_edge_path(pred_v, pred_e, 0, target)
        assert len(edges) == len(path) - 1
        # Edge path length equals the reported distance.
        total = sum(road.edge_length(e) for e in edges)
        assert total == pytest.approx(dist[target])

    def test_path_to_self(self, adj):
        _, pred_v, pred_e = dijkstra(adj, 2)
        assert reconstruct_vertex_path(pred_v, 2, 2) == [2]
        assert reconstruct_edge_path(pred_v, pred_e, 2, 2) == []

    def test_unreachable_gives_empty(self):
        # Two isolated vertices.
        adj2 = [[], []]
        dist, pred_v, pred_e = dijkstra(adj2, 0)
        assert math.isinf(dist[1])
        assert reconstruct_vertex_path(pred_v, 0, 1) == []
        assert reconstruct_edge_path(pred_v, pred_e, 0, 1) == []


class TestPointToPoint:
    def test_shortest_path_wrapper(self, road, adj, nx_graph):
        d, vpath, epath = shortest_path(adj, 0, road.n_vertices - 1)
        want = nx.dijkstra_path_length(nx_graph, 0, road.n_vertices - 1, weight="length")
        assert d == pytest.approx(want)
        assert vpath[0] == 0 and vpath[-1] == road.n_vertices - 1

    def test_bidirectional_matches_unidirectional(self, road, adj):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, t = rng.integers(0, road.n_vertices, 2)
            d_uni, _, _ = shortest_path(adj, int(s), int(t))
            d_bi, path = bidirectional_dijkstra(adj, int(s), int(t))
            assert d_bi == pytest.approx(d_uni)
            if path:
                assert path[0] == s and path[-1] == t

    def test_bidirectional_same_vertex(self, adj):
        d, path = bidirectional_dijkstra(adj, 3, 3)
        assert d == 0.0 and path == [3]


def adjacency_of(n, edges, weights):
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid, weights[eid]))
        adj[v].append((u, eid, weights[eid]))
    return adj


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
        n, edges, weights, origins = graph
        adj = adjacency_of(n, edges, weights)
        rows = list(shortest_path_forest(n, edges, weights, origins))
        assert [row[0] for row in rows] == origins
        for origin, dist, pred_v, pred_e in rows:
            assert dist == dijkstra(adj, origin)[0]
            for v in range(n):
                vertices = reconstruct_vertex_path(pred_v, origin, v)
                edge_path = reconstruct_edge_path(pred_v, pred_e, origin, v)
                assert vertices[0] == origin and vertices[-1] == v
                assert len(edge_path) == len(vertices) - 1
                for a, b, eid in zip(vertices, vertices[1:], edge_path):
                    assert edges[eid] == (min(a, b), max(a, b))
                assert path_weight(weights, edge_path) == dist[v]

    def test_rows_do_not_depend_on_block_size(self, road, monkeypatch):
        origins = list(range(road.n_vertices))[::-1]
        args = (road.n_vertices, road.edge_list(), road.edge_lengths(), origins)
        whole = list(shortest_path_forest(*args))
        monkeypatch.setattr(sp_mod, "FOREST_BLOCK", 5)
        assert list(shortest_path_forest(*args)) == whole

    def test_unreachable_vertex(self):
        (row,) = shortest_path_forest(3, [(0, 1)], [1.0], [0])
        _, dist, pred_v, pred_e = row
        assert dist == [0.0, 1.0, math.inf]
        assert pred_v == [-1, 0, -1] and pred_e == [-1, 0, -1]
        assert reconstruct_edge_path(pred_v, pred_e, 0, 2) == []
        assert reconstruct_vertex_path(pred_v, 0, 2) == []

    def test_zero_length_edge_stays_an_edge(self):
        (row,) = shortest_path_forest(3, [(0, 1), (1, 2)], [0.0, 1.5], [0])
        _, dist, pred_v, pred_e = row
        assert dist == [0.0, 0.0, 1.5]
        assert pred_v == [-1, 0, 1] and pred_e == [-1, 0, 1]
        assert reconstruct_edge_path(pred_v, pred_e, 0, 2) == [0, 1]

    def test_empty_origin_list(self):
        assert list(shortest_path_forest(3, [(0, 1)], [1.0], [])) == []

    @pytest.mark.parametrize("origin", [-1, 3])
    def test_bad_origin_rejected(self, origin):
        with pytest.raises(GraphError):
            list(shortest_path_forest(3, [(0, 1)], [1.0], [0, origin]))
