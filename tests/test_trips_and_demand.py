"""Unit tests for trip conversion (5% tolerance rule) and demand aggregation."""

import networkx as nx
import pytest

from repro.network.road import RoadNetwork
from repro.trajectory.demand import (
    aggregate_trajectory_demand,
    aggregate_trip_demand,
    demand_of_road_edges,
)
from repro.trajectory.trajectory import Trajectory
from repro.trajectory.trips import TripRecord, trips_to_trajectories
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


def both_conversions(road: RoadNetwork, trips: list[TripRecord]):
    """(accepted count and demand, trajectories) from the two conversions."""
    direct = road.copy()
    accepted = aggregate_trip_demand(direct, trips)
    return (accepted, direct.demand_counts()), trips_to_trajectories(road, trips)


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


class TestTripsToTrajectories:
    def test_accepts_within_tolerance(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8, 1.03)]
        out = trips_to_trajectories(grid_road, trips, tolerance=0.05)
        assert len(out) == 1
        assert out[0].origin == 0 and out[0].destination == 8
        assert out[0].n_edges == 4

    def test_rejects_outside_tolerance(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8, 1.30)]
        assert trips_to_trajectories(grid_road, trips, tolerance=0.05) == []

    def test_time_check_can_reject(self, grid_road):
        trip = exact_trip(grid_road, 0, 8)
        bad_time = TripRecord(0, 8, trip.distance_km, trip.duration_min * 2)
        assert trips_to_trajectories(grid_road, [bad_time]) == []
        assert len(trips_to_trajectories(grid_road, [bad_time], check_time=False)) == 1

    def test_groups_by_origin(self, grid_road):
        trips = [exact_trip(grid_road, 0, 8), exact_trip(grid_road, 0, 2),
                 exact_trip(grid_road, 4, 6)]
        out = trips_to_trajectories(grid_road, trips)
        assert len(out) == 3

    def test_timestamps_monotone(self, grid_road):
        out = trips_to_trajectories(grid_road, [exact_trip(grid_road, 0, 8)])
        ts = out[0].timestamps
        assert all(ts[i] < ts[i + 1] for i in range(len(ts) - 1))

    def test_bad_tolerance_rejected(self, grid_road):
        with pytest.raises(ValidationError):
            trips_to_trajectories(grid_road, [], tolerance=-0.1)


class TestDemandAggregation:
    def test_trajectory_aggregation_counts(self, grid_road):
        t1 = Trajectory((0, 1, 2), tuple(
            grid_road.edge_between(a, b) for a, b in [(0, 1), (1, 2)]
        ))
        count = aggregate_trajectory_demand(grid_road, [t1, t1])
        assert count == 2
        assert grid_road.edge_demand(grid_road.edge_between(0, 1)) == 2.0

    def test_trip_aggregation_matches_trajectory_path(self, grid_road):
        # Every ordered pair of the unit grid: most have several tied
        # shortest paths, and both conversions must pick the same one.
        road_a, road_b = grid_road.copy(), grid_road.copy()
        trips = [
            exact_trip(grid_road, a, b)
            for a in range(grid_road.n_vertices)
            for b in range(grid_road.n_vertices)
            if a != b
        ]
        assert len(trips) == 72
        accepted = aggregate_trip_demand(road_a, trips)
        trajs = trips_to_trajectories(road_b, trips)
        aggregate_trajectory_demand(road_b, trajs)
        assert accepted == len(trajs) == 72
        assert road_a.demand_counts().tolist() == road_b.demand_counts().tolist()

    @pytest.mark.parametrize("distance, duration", [(0.0, 0.0), (0.0, 4.0), (2.0, 0.0)])
    def test_zero_records_rejected_like_the_reference(self, grid_road, distance, duration):
        # 0 -> 2 is a two-edge path of length 2 and time 4: a recorded 0
        # is out of tolerance, exactly as in trips_to_trajectories.
        (accepted, demand), trajs = both_conversions(
            grid_road, [TripRecord(0, 2, distance, duration)]
        )
        assert accepted == len(trajs) == 0
        assert demand.sum() == 0.0

    def test_negative_tolerance_rejected(self, grid_road):
        road = grid_road.copy()
        road.add_demand(0, 3.0)
        with pytest.raises(ValidationError):
            aggregate_trip_demand(road, [exact_trip(grid_road, 0, 2)], tolerance=-0.1)
        assert road.edge_demand(0) == 3.0

    @pytest.mark.parametrize("pickup, dropoff", [(0, 9), (9, 0), (10**6, 3)])
    def test_out_of_range_vertex_raises_naming_the_trip(self, grid_road, pickup, dropoff):
        trips = [exact_trip(grid_road, 0, 2), TripRecord(pickup, dropoff, 1.0, 1.0)]
        road = grid_road.copy()
        with pytest.raises(GraphError, match=f"trip 1 \\({pickup} -> {dropoff}\\)"):
            aggregate_trip_demand(road, trips)
        assert road.demand_counts().sum() == 0.0
        with pytest.raises(GraphError, match=f"trip 1 \\({pickup} -> {dropoff}\\)"):
            trips_to_trajectories(grid_road, trips)

    def test_unreachable_trip_skipped(self, grid_road):
        road = grid_road.copy()
        island = road.add_vertex(5.0, 5.0)
        trips = [exact_trip(grid_road, 0, 2), TripRecord(0, island, 5.0, 10.0)]
        (accepted, demand), trajs = both_conversions(road, trips)
        assert accepted == len(trajs) == 1
        assert demand.sum() == 2.0

    def test_rejected_trips_add_nothing(self, grid_road):
        road = grid_road.copy()
        accepted = aggregate_trip_demand(road, [exact_trip(grid_road, 0, 8, 2.0)])
        assert accepted == 0
        assert road.demand_counts().sum() == 0.0

    def test_reset_flag(self, grid_road):
        road = grid_road.copy()
        aggregate_trip_demand(road, [exact_trip(grid_road, 0, 2)])
        before = road.demand_counts().sum()
        aggregate_trip_demand(road, [exact_trip(grid_road, 0, 2)], reset=False)
        assert road.demand_counts().sum() == pytest.approx(2 * before)

    def test_demand_of_road_edges(self, grid_road):
        road = grid_road.copy()
        eid = road.edge_between(0, 1)
        road.add_demand(eid, 3.0)
        assert demand_of_road_edges(road, [eid]) == pytest.approx(
            3.0 * road.edge_length(eid)
        )
