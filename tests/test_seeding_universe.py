"""Unit tests for candidate-edge generation and the edge universe."""

from itertools import islice

import networkx as nx
import numpy as np
import pytest

from repro.core.edges import PlanEdge
from repro.core.seeding import build_edge_universe, candidate_stop_pairs
from repro.data.datasets import build_dataset
from repro.data.synth import SynthConfig
from repro.network.geometry import euclidean
from repro.network.shortest_path import path_weight
from repro.utils.errors import GraphError


class TestCandidatePairs:
    def test_within_tau_and_unconnected(self, tiny_dataset):
        tau = 0.5
        pairs = candidate_stop_pairs(tiny_dataset, tau)
        transit = tiny_dataset.transit
        coords = transit.stop_coords
        for u, v in pairs:
            assert euclidean(coords[u], coords[v]) <= tau + 1e-9
            assert transit.edge_between(u, v) is None

    def test_no_duplicates(self, tiny_dataset):
        pairs = candidate_stop_pairs(tiny_dataset, 0.5)
        assert len(pairs) == len(set(pairs))
        assert all(u < v for u, v in pairs)

    def test_larger_tau_more_pairs(self, small_dataset):
        assert len(candidate_stop_pairs(small_dataset, 0.8)) >= len(
            candidate_stop_pairs(small_dataset, 0.4)
        )


class TestEdgeUniverse:
    @pytest.fixture(scope="class")
    def universe(self, small_dataset):
        return build_edge_universe(small_dataset, tau_km=0.5)

    def test_existing_edges_first(self, universe, small_dataset):
        n_existing = small_dataset.transit.n_edges
        assert universe.n_existing_edges == n_existing
        for i in range(n_existing):
            assert not universe.edge(i).is_new
            assert universe.edge(i).transit_eid == i

    def test_new_edges_have_road_geometry(self, universe, small_dataset):
        road = small_dataset.road
        for e in universe.edges:
            if e.is_new:
                assert len(e.road_path) >= 1
                total = sum(road.edge_length(re) for re in e.road_path)
                assert total == pytest.approx(e.length)

    def test_new_edge_demand_matches_road_path(self, universe, small_dataset):
        road = small_dataset.road
        for e in universe.edges[universe.n_existing_edges :][:20]:
            want = sum(
                road.edge_demand(re) * road.edge_length(re) for re in e.road_path
            )
            assert e.demand == pytest.approx(want)

    def test_incidence_lists(self, universe):
        for stop in range(universe.n_stops):
            for idx in universe.incident(stop):
                e = universe.edge(idx)
                assert stop in (e.u, e.v)

    def test_new_pairs_filtering(self, universe):
        some = [e.index for e in universe.edges[:10]]
        pairs = universe.new_pairs(some)
        assert all(universe.edge(i).is_new for i in some if universe.edge(i).pair in pairs) or True
        got = {p for p in pairs}
        want = {universe.edge(i).pair for i in some if universe.edge(i).is_new}
        assert got == want

    def test_set_deltas_shape_checked(self, universe):
        with pytest.raises(GraphError):
            universe.set_deltas(np.zeros(3))

    def test_plan_edge_other(self):
        e = PlanEdge(index=0, u=3, v=7, length=1.0, demand=0.0, is_new=True)
        assert e.other(3) == 7
        assert e.other(7) == 3
        with pytest.raises(GraphError):
            e.other(5)


class TestCandidateEdgesUnderTies:
    """On an unjittered grid most stop pairs have several shortest paths."""

    @pytest.fixture(scope="class")
    def grid(self):
        dataset = build_dataset(SynthConfig(
            name="grid", grid_width=10, grid_height=8, coord_jitter=0.0,
            drop_edge_prob=0.0, diagonal_prob=0.0, n_routes=5,
            route_min_km=1.0, n_trips=200, seed=5,
        ))
        universe = build_edge_universe(dataset, tau_km=0.8)
        return dataset, [e for e in universe.edges if e.is_new]

    def test_most_pairs_tie(self, grid):
        dataset, new_edges = grid
        graph = dataset.road.to_networkx()
        tied = 0
        for e in new_edges:
            ru = dataset.transit.stop_road_vertex(e.u)
            rv = dataset.transit.stop_road_vertex(e.v)
            paths = nx.all_shortest_paths(graph, ru, rv, weight="length")
            tied += len(list(islice(paths, 2))) == 2
        assert new_edges and tied > len(new_edges) / 2

    def test_length_is_the_shortest_road_distance(self, grid):
        dataset, new_edges = grid
        graph = dataset.road.to_networkx()
        for e in new_edges:
            ru = dataset.transit.stop_road_vertex(e.u)
            rv = dataset.transit.stop_road_vertex(e.v)
            assert e.length == nx.dijkstra_path_length(graph, ru, rv, weight="length")

    def test_road_path_walks_from_stop_to_stop(self, grid):
        dataset, new_edges = grid
        road = dataset.road
        for e in new_edges:
            at = dataset.transit.stop_road_vertex(e.u)
            for re in e.road_path:
                a, b = road.edge_endpoints(re)
                assert at in (a, b)
                at = b if at == a else a
            assert e.road_path and at == dataset.transit.stop_road_vertex(e.v)
            assert path_weight(road.edge_lengths(), e.road_path) == e.length
