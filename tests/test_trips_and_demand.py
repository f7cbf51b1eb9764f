"""Unit tests for trip acceptance (5% tolerance rule) and demand aggregation."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.network.geometry import euclidean
from repro.network.road import RoadNetwork
from repro.trajectory.demand import aggregate_trip_demand
from repro.trajectory.trips import TripRecord, accepted_trip_paths
from repro.utils.errors import GraphError, ValidationError


@pytest.fixture
def grid_road() -> RoadNetwork:
    """3x3 unit grid."""
    net = RoadNetwork()
    for y in range(3):
        for x in range(3):
            net.add_vertex(float(x), float(y))
    for y in range(3):
        for x in range(3):
            v = y * 3 + x
            if x < 2:
                net.add_edge(v, v + 1)
            if y < 2:
                net.add_edge(v, v + 3)
    return net


def exact_trip(road: RoadNetwork, a: int, b: int, scale: float = 1.0) -> TripRecord:
    """A trip whose recorded values are the true shortest-path metrics."""
    graph = road.to_networkx()
    d, vertices = nx.single_source_dijkstra(graph, a, b, weight="length")
    t = sum(graph.edges[u, v]["travel_time"] for u, v in zip(vertices, vertices[1:]))
    return TripRecord(a, b, d * scale, t * scale)


def walk(road: RoadNetwork, start: int, edges: list[int]) -> int:
    """The vertex an edge path from ``start`` ends at; fails if it breaks."""
    v = start
    for e in edges:
        a, b = road.edge_endpoints(e)
        assert v in (a, b)
        v = b if v == a else a
    return v


class TestTripRecord:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            TripRecord(0, 1, -1.0, 5.0)
        with pytest.raises(ValidationError):
            TripRecord(0, 1, 1.0, -5.0)

    @pytest.mark.parametrize("pickup, dropoff", [(-1, 2), (0, -1)])
    def test_negative_vertex_rejected(self, pickup, dropoff):
        with pytest.raises(ValidationError):
            TripRecord(pickup, dropoff, 1.0, 1.0)

    @pytest.mark.parametrize(
        "distance, duration, field",
        [
            (math.nan, 5.0, "distance_km"),
            (math.inf, 5.0, "distance_km"),
            (-math.inf, 5.0, "distance_km"),
            (1.0, math.nan, "duration_min"),
            (1.0, math.inf, "duration_min"),
            (1.0, -math.inf, "duration_min"),
        ],
    )
    def test_non_finite_rejected_naming_the_field(self, distance, duration, field):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            TripRecord(0, 1, distance, duration)


class TestAcceptedTripPaths:
    def test_accepts_within_tolerance(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8, 1.03)]
        ((trip, edges),) = accepted_trip_paths(grid_road, trips)
        assert trip is trips[0]
        assert len(edges) == 4
        assert walk(grid_road, 0, edges) == 8

    def test_rejects_outside_tolerance(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8, 1.30)]
        assert list(accepted_trip_paths(grid_road, trips)) == []

    def test_time_check_can_reject(self, grid_road):
        trip = exact_trip(grid_road, 0, 8)
        bad_time = TripRecord(0, 8, trip.distance_km, trip.duration_min * 2)
        assert list(accepted_trip_paths(grid_road, [bad_time])) == []
        assert len(list(accepted_trip_paths(grid_road, [trip]))) == 1

    def test_groups_by_origin(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8), exact_trip(grid_road, 4, 6),
                 exact_trip(grid_road, 0, 2)]
        out = list(accepted_trip_paths(grid_road, trips))
        # One tree per pickup vertex, in first-seen order.
        assert [trip for trip, _ in out] == [trips[0], trips[2], trips[1]]
        for trip, edges in out:
            assert walk(grid_road, trip.pickup_vertex, edges) == trip.dropoff_vertex


class TestDemandAggregation:
    def test_counts_match_networkx_and_the_five_percent_rule(self):
        # A jittered grid with a random speed per edge: no two paths tie,
        # and a path's time is not its length rescaled, so the time check
        # rejects trips the distance check keeps.
        rng = np.random.default_rng(3)
        side = 6
        road = RoadNetwork()
        for y in range(side):
            for x in range(side):
                road.add_vertex(x + rng.uniform(-0.25, 0.25), y + rng.uniform(-0.25, 0.25))
        for v in range(side * side):
            for w in ([v + 1] if v % side < side - 1 else []) + (
                [v + side] if v + side < side * side else []
            ):
                length = euclidean(road.vertex_xy(v), road.vertex_xy(w))
                road.add_edge(v, w, travel_time=length * rng.uniform(1.5, 3.0))
        graph = road.to_networkx()

        trips, expected, accepted, time_rejected = [], [0.0] * road.n_edges, 0, 0
        for _ in range(300):
            a, b = (int(v) for v in rng.choice(road.n_vertices, 2, replace=False))
            d, path = nx.single_source_dijkstra(graph, a, b, weight="length")
            t = 0.0
            for u, v in zip(path, path[1:]):
                t += graph.edges[u, v]["travel_time"]
            trip = TripRecord(a, b, d * rng.uniform(0.9, 1.1), t * rng.uniform(0.9, 1.1))
            trips.append(trip)
            d_ok = abs(d - trip.distance_km) <= 0.05 * trip.distance_km
            t_ok = abs(t - trip.duration_min) <= 0.05 * trip.duration_min
            time_rejected += d_ok and not t_ok
            if d_ok and t_ok:
                accepted += 1
                for u, v in zip(path, path[1:]):
                    expected[graph.edges[u, v]["edge_id"]] += 1.0

        assert 0 < accepted < len(trips) and time_rejected > 0
        assert aggregate_trip_demand(road, trips) == accepted
        assert road.demand_counts().tolist() == expected

    @pytest.mark.parametrize("distance, duration", [(0.0, 0.0), (0.0, 4.0), (2.0, 0.0)])
    def test_zero_records_rejected_like_the_reference(self, grid_road, distance, duration):
        # 0 -> 2 is a two-edge path of length 2 and time 4: by the 5% rule
        # a recorded 0 is out of tolerance.
        road = grid_road.copy()
        assert aggregate_trip_demand(road, [TripRecord(0, 2, distance, duration)]) == 0
        assert road.demand_counts().sum() == 0.0

    @pytest.mark.parametrize("pickup, dropoff", [(0, 9), (9, 0), (10**6, 3)])
    def test_out_of_range_vertex_raises_naming_the_trip(self, grid_road, pickup, dropoff):
        trips = [exact_trip(grid_road, 0, 2), TripRecord(pickup, dropoff, 1.0, 1.0)]
        road = grid_road.copy()
        road.add_demand(0, 3.0)
        with pytest.raises(GraphError, match=f"trip 1 \\({pickup} -> {dropoff}\\)"):
            aggregate_trip_demand(road, trips)
        assert road.demand_counts().tolist() == [3.0] + [0.0] * (road.n_edges - 1)

    def test_unreachable_trip_skipped(self, grid_road):
        road = grid_road.copy()
        island = road.add_vertex(5.0, 5.0)
        trips = [exact_trip(grid_road, 0, 2), TripRecord(0, island, 5.0, 10.0)]
        assert aggregate_trip_demand(road, trips) == 1
        assert road.demand_counts().sum() == 2.0

    def test_rejected_trips_add_nothing(self, grid_road):
        road = grid_road.copy()
        accepted = aggregate_trip_demand(road, [exact_trip(grid_road, 0, 8, 2.0)])
        assert accepted == 0
        assert road.demand_counts().sum() == 0.0

    def test_replaces_earlier_demand(self, grid_road):
        road = grid_road.copy()
        aggregate_trip_demand(road, [exact_trip(grid_road, 0, 2)])
        once = road.demand_counts().tolist()
        road.add_demand(road.edge_between(6, 7), 5.0)
        aggregate_trip_demand(road, [exact_trip(grid_road, 0, 2)])
        assert road.demand_counts().tolist() == once
