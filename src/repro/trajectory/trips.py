"""Taxi trip records and the trip-to-trajectory conversion (Sec. 7.1.1).

A trip record holds only a pickup/drop-off vertex plus recorded travel
distance and time. Following the paper, each trip is realized as the
shortest road path between its endpoints and *accepted* as a trajectory
only when the path's distance and time are both within a tolerance
(default 5%) of the recorded values — otherwise the shortest path is a
poor proxy for the route actually driven and the trip is discarded.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.network.road import RoadNetwork
from repro.network.shortest_path import PathForest, path_weight, reconstruct_edge_path
from repro.trajectory.trajectory import Trajectory
from repro.utils.errors import GraphError, ValidationError

DEFAULT_TOLERANCE = 0.05
"""Paper: accept a shortest path within 5% of the recorded trip."""


@dataclass(frozen=True)
class TripRecord:
    """One taxi trip: endpoints plus odometer distance and duration."""

    pickup_vertex: int
    dropoff_vertex: int
    distance_km: float
    duration_min: float

    def __post_init__(self) -> None:
        if self.pickup_vertex < 0 or self.dropoff_vertex < 0:
            raise ValidationError(
                f"trip vertices must be >= 0, got {self.pickup_vertex} -> {self.dropoff_vertex}"
            )
        if self.distance_km < 0:
            raise ValidationError(f"distance must be >= 0, got {self.distance_km}")
        if self.duration_min < 0:
            raise ValidationError(f"duration must be >= 0, got {self.duration_min}")


def _within(measured: float, recorded: float, tolerance: float) -> bool:
    if recorded <= 0:
        return measured <= 0
    return abs(measured - recorded) <= tolerance * recorded


def accepted_trip_paths(
    road: RoadNetwork,
    trips: list[TripRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    check_time: bool = True,
) -> Iterator[tuple[TripRecord, list[int]]]:
    """Each trip the tolerance filter accepts, with its road edge path.

    Trips are grouped by pickup vertex and walked on one shortest-path
    forest (:class:`~repro.network.shortest_path.PathForest`),
    so every consumer of this generator sees the same path for the same
    trip. A trip is accepted when its path's length and, with
    ``check_time``, its travel time along that path are both within
    ``tolerance`` of the recorded values. Unreachable trips are skipped.
    Yields ``(trip, edges)`` with edges from pickup to dropoff.
    """
    if not 0 <= tolerance:
        raise ValidationError(f"tolerance must be >= 0, got {tolerance}")
    n = road.n_vertices
    by_origin: dict[int, list[TripRecord]] = {}
    for i, trip in enumerate(trips):
        if not (0 <= trip.pickup_vertex < n and 0 <= trip.dropoff_vertex < n):
            raise GraphError(
                f"trip {i} ({trip.pickup_vertex} -> {trip.dropoff_vertex}) has a "
                f"vertex outside the road's {n} vertices"
            )
        by_origin.setdefault(trip.pickup_vertex, []).append(trip)

    times = road.edge_travel_times().tolist()
    trees = PathForest(n, road.edge_list()).trees(road.edge_lengths(), list(by_origin))
    for origin, dist, pred_v, pred_e in trees:
        for trip in by_origin[origin]:
            d = dist[trip.dropoff_vertex]
            if math.isinf(d) or not _within(d, trip.distance_km, tolerance):
                continue
            edges = reconstruct_edge_path(pred_v, pred_e, origin, trip.dropoff_vertex)
            if check_time and not _within(
                path_weight(times, edges), trip.duration_min, tolerance
            ):
                continue
            yield trip, edges


def trips_to_trajectories(
    road: RoadNetwork,
    trips: list[TripRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    check_time: bool = True,
) -> list[Trajectory]:
    """Convert trips to trajectories via tolerance-checked shortest paths.

    Trips are grouped by pickup vertex so each distinct origin costs one
    shortest-path tree. Unreachable or out-of-tolerance trips are skipped.
    """
    out: list[Trajectory] = []
    for trip, edges in accepted_trip_paths(road, trips, tolerance, check_time):
        vertices = [trip.pickup_vertex]
        times = [0.0]
        for e in edges:
            u, v = road.edge_endpoints(e)
            vertices.append(v if u == vertices[-1] else u)
            times.append(times[-1] + road.edge_travel_time(e))
        out.append(Trajectory(tuple(vertices), tuple(edges), tuple(times)))
    return out
