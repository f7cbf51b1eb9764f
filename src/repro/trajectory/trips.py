"""Taxi trip records and the acceptance rule of Sec. 7.1.1.

A trip record holds only a pickup/drop-off vertex plus recorded travel
distance and time. Following the paper, each trip is realized as the
shortest road path between its endpoints and *accepted* only when the
path's distance and time are both within :data:`TOLERANCE` of the
recorded values — otherwise the shortest path is a poor proxy for the
route actually driven and the trip is discarded. The accepted paths
feed one consumer, the demand aggregation of
:func:`~repro.trajectory.demand.aggregate_trip_demand`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.network.road import RoadNetwork
from repro.network.shortest_path import PathForest, path_weight, reconstruct_edge_path
from repro.utils.errors import GraphError, ValidationError

TOLERANCE = 0.05
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
        # One chained comparison per field: NaN fails it like a negative.
        if not 0 <= self.distance_km < math.inf:
            raise ValidationError(
                f"distance_km must be finite and >= 0, got {self.distance_km}"
            )
        if not 0 <= self.duration_min < math.inf:
            raise ValidationError(
                f"duration_min must be finite and >= 0, got {self.duration_min}"
            )


def _within(measured: float, recorded: float) -> bool:
    if recorded <= 0:
        return measured <= 0
    return abs(measured - recorded) <= TOLERANCE * recorded


def accepted_trip_paths(
    road: RoadNetwork, trips: list[TripRecord]
) -> Iterator[tuple[TripRecord, list[int]]]:
    """Each trip the tolerance filter accepts, with its road edge path.

    Trips are grouped by pickup vertex and walked on one shortest-path
    forest (:class:`~repro.network.shortest_path.PathForest`). A trip is
    accepted when its path's length and its travel time along that path
    (a left fold from the pickup) are both within :data:`TOLERANCE` of
    the recorded values. Unreachable trips are skipped. Yields
    ``(trip, edges)`` with edges from pickup to dropoff.
    """
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
            if math.isinf(d) or not _within(d, trip.distance_km):
                continue
            edges = reconstruct_edge_path(pred_v, pred_e, origin, trip.dropoff_vertex)
            if not _within(path_weight(times, edges), trip.duration_min):
                continue
            yield trip, edges
