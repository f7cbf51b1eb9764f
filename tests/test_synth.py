"""Unit tests for the synthetic city generator."""

import networkx as nx
import numpy as np
import pytest

from repro.data.synth import (
    SynthConfig,
    generate_hotspots,
    generate_road_network,
    generate_transit_network,
    generate_trips,
)
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def cfg() -> SynthConfig:
    return SynthConfig(
        name="t", grid_width=10, grid_height=8, n_routes=5,
        route_min_km=1.0, n_trips=400, seed=7,
    )


@pytest.fixture(scope="module")
def road(cfg):
    return generate_road_network(cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(grid_width=1)
        with pytest.raises(ValidationError):
            SynthConfig(n_routes=0)
        with pytest.raises(ValidationError):
            SynthConfig(trip_reject_fraction=1.5)

    def test_scaled_override(self, cfg):
        c2 = cfg.scaled(n_trips=99)
        assert c2.n_trips == 99
        assert c2.grid_width == cfg.grid_width


class TestRoadGeneration:
    def test_deterministic(self, cfg):
        a = generate_road_network(cfg)
        b = generate_road_network(cfg)
        assert a.n_vertices == b.n_vertices
        assert a.n_edges == b.n_edges
        assert a.coords == pytest.approx(b.coords)

    def test_connected(self, road):
        assert nx.is_connected(road.to_networkx())

    def test_size(self, cfg, road):
        assert road.n_vertices == cfg.grid_width * cfg.grid_height
        # Grid minus drops plus diagonals: within a loose band.
        full_grid = 2 * cfg.grid_width * cfg.grid_height - cfg.grid_width - cfg.grid_height
        assert 0.8 * full_grid <= road.n_edges <= 1.2 * full_grid

    def test_near_planar_spectral_norm(self, road):
        """The property motivating Lanczos: small ||A||_2 (paper ~5)."""
        from repro.network.adjacency import adjacency_matrix
        from repro.spectral.norms import spectral_norm

        A = adjacency_matrix(
            road.n_vertices,
            [road.edge_endpoints(e) for e in range(road.n_edges)],
        )
        assert spectral_norm(A) < 6.0

    def test_different_seed_differs(self, cfg, road):
        other = generate_road_network(cfg.scaled(seed=cfg.seed + 1))
        assert not np.allclose(other.coords, road.coords)


class TestHotspots:
    def test_weights_normalized(self, cfg, road):
        h = generate_hotspots(cfg, road)
        assert h.weights.sum() == pytest.approx(1.0)
        assert len(h.centers) == cfg.n_hotspots + cfg.trip_hotspot_bonus
        assert h.n_transit == cfg.n_hotspots

    def test_trip_only_hotspots(self, cfg, road):
        bonus_cfg = cfg.scaled(trip_hotspot_bonus=3)
        h = generate_hotspots(bonus_cfg, road)
        assert len(h.centers) == bonus_cfg.n_hotspots + 3
        # Transit sampling never touches the trip-only tail.
        rng = np.random.default_rng(0)
        draws = {h.sample_center(rng, transit_only=True) for _ in range(200)}
        assert max(draws) < bonus_cfg.n_hotspots

    def test_trip_concentration_skews_sampling(self, cfg, road):
        h = generate_hotspots(cfg, road)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        top = int(np.argmax(h.weights))
        flat = sum(h.sample_trip_center(rng_a, 0.0) == top for _ in range(500))
        skew = sum(h.sample_trip_center(rng_b, 4.0) == top for _ in range(500))
        assert skew > flat

    def test_trip_center_draw_is_rng_choice(self, cfg, road):
        # Same index and same stream as rng.choice(p=): the draw order of
        # trip synthesis is the dataset contract.
        h = generate_hotspots(cfg, road)
        w = h.weights ** 3.0
        p = w / w.sum()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        drawn = [h.sample_trip_center(rng_a, 3.0) for _ in range(20000)]
        assert drawn == [int(rng_b.choice(len(p), p=p)) for _ in range(20000)]
        assert rng_a.random() == rng_b.random()

    def test_centers_in_bbox(self, cfg, road):
        h = generate_hotspots(cfg, road)
        lo = road.coords.min(axis=0)
        hi = road.coords.max(axis=0)
        assert (h.centers >= lo - 1e-9).all() and (h.centers <= hi + 1e-9).all()


class TestTransitGeneration:
    def test_routes_and_stops(self, cfg, road):
        transit = generate_transit_network(cfg, road)
        assert transit.n_routes == cfg.n_routes
        assert transit.n_stops >= 2
        # Every stop affiliated with a road vertex.
        for s in range(transit.n_stops):
            assert 0 <= transit.stop_road_vertex(s) < road.n_vertices

    def test_edges_have_road_geometry(self, cfg, road):
        transit = generate_transit_network(cfg, road)
        for eid in range(transit.n_edges):
            path = transit.edge_road_path(eid)
            assert len(path) >= 1
            total = sum(road.edge_length(re) for re in path)
            assert total == pytest.approx(transit.edge_length(eid))

    def test_impossible_min_distance_raises(self, cfg, road):
        bad = cfg.scaled(route_min_km=1e6)
        with pytest.raises(Exception):
            generate_transit_network(bad, road)


class TestTripGeneration:
    def test_counts_and_fields(self, cfg, road):
        trips = generate_trips(cfg, road)
        assert 0.9 * cfg.n_trips <= len(trips) <= cfg.n_trips
        for t in trips[:50]:
            assert t.pickup_vertex != t.dropoff_vertex
            assert t.distance_km > 0 and t.duration_min > 0

    def test_most_trips_near_true_shortest_path(self, cfg, road):
        """Noise model: most recorded distances within ~3 sigma of truth."""
        trips = generate_trips(cfg, road)
        graph = road.to_networkx()
        close = 0
        sample = trips[:100]
        for t in sample:
            d = nx.dijkstra_path_length(
                graph, t.pickup_vertex, t.dropoff_vertex, weight="length"
            )
            if abs(t.distance_km - d) <= 0.08 * d:
                close += 1
        assert close >= 0.7 * len(sample)

    def test_deterministic(self, cfg, road):
        a = generate_trips(cfg, road)
        b = generate_trips(cfg, road)
        assert [(t.pickup_vertex, t.dropoff_vertex) for t in a] == [
            (t.pickup_vertex, t.dropoff_vertex) for t in b
        ]
