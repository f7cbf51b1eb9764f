"""Property-based tests for the synthetic city generator.

Structural invariants that must hold for *any* configuration: the road
network stays connected, transit edges carry road paths that actually
chain between their stops' road vertices, and demand aggregation only
touches road edges that exist.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import build_dataset
from repro.data.synth import SynthConfig


@st.composite
def configs(draw):
    return SynthConfig(
        name="prop",
        grid_width=draw(st.integers(5, 12)),
        grid_height=draw(st.integers(4, 10)),
        drop_edge_prob=draw(st.floats(0.0, 0.25)),
        diagonal_prob=draw(st.floats(0.0, 0.15)),
        n_hotspots=draw(st.integers(2, 6)),
        trip_hotspot_bonus=draw(st.integers(0, 2)),
        n_routes=draw(st.integers(2, 6)),
        route_min_km=0.5,
        n_trips=draw(st.integers(50, 300)),
        seed=draw(st.integers(0, 10_000)),
    )


class TestGeneratorInvariants:
    @settings(max_examples=12, deadline=None)
    @given(configs())
    def test_dataset_structural_invariants(self, cfg):
        ds = build_dataset(cfg)
        road, transit = ds.road, ds.transit

        # Road network connected.
        assert nx.is_connected(road.to_networkx())

        # Stops affiliated with real road vertices, no duplicates per vertex.
        seen_vertices = set()
        for s in range(transit.n_stops):
            rv = transit.stop_road_vertex(s)
            assert 0 <= rv < road.n_vertices
            assert rv not in seen_vertices
            seen_vertices.add(rv)

        # Transit edges: road paths chain between the stops' road vertices.
        for eid in range(transit.n_edges):
            u, v = transit.edge_endpoints(eid)
            path = transit.edge_road_path(eid)
            assert len(path) >= 1
            endpoints = {transit.stop_road_vertex(u), transit.stop_road_vertex(v)}
            chain_ends = set()
            degree_count = {}
            for re in path:
                a, b = road.edge_endpoints(re)
                degree_count[a] = degree_count.get(a, 0) + 1
                degree_count[b] = degree_count.get(b, 0) + 1
            chain_ends = {v_ for v_, c in degree_count.items() if c == 1}
            # A simple chain has exactly its two terminals with degree 1.
            assert chain_ends == endpoints

        # Demand: non-negative, finite, bounded by accepted trip count
        # times the max path length.
        counts = road.demand_counts()
        assert (counts >= 0).all()
        assert counts.sum() <= ds.accepted_trips * road.n_edges

        # Accepted trips can never exceed generated trips.
        assert 0 <= ds.accepted_trips <= len(ds.trips)

    @settings(max_examples=8, deadline=None)
    @given(configs())
    def test_determinism(self, cfg):
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert a.stats() == b.stats()
        assert a.road.demand_counts() == pytest.approx(b.road.demand_counts())
