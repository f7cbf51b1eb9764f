"""Edge demand aggregation (paper Eq. 4).

``O_d(mu) = sum_{e in mu} f_e * |e|`` where ``f_e`` counts trajectories
traversing road edge ``e``. Aggregation writes ``f_e`` onto the road
network so every later demand lookup is an O(1) array access.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.network.road import RoadNetwork
from repro.trajectory.trajectory import Trajectory
from repro.trajectory.trips import DEFAULT_TOLERANCE, TripRecord, accepted_trip_paths


def aggregate_trajectory_demand(
    road: RoadNetwork, trajectories: Iterable[Trajectory], reset: bool = True
) -> int:
    """Accumulate ``f_e`` from materialized trajectories.

    Returns the number of trajectories aggregated.
    """
    if reset:
        road.reset_demand()
    count = 0
    for traj in trajectories:
        for eid in traj.edges:
            road.add_demand(eid, 1.0)
        count += 1
    return count


def aggregate_trip_demand(
    road: RoadNetwork,
    trips: list[TripRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    reset: bool = True,
) -> int:
    """Accumulate ``f_e`` directly from trip records (fast path).

    Equivalent to :func:`~repro.trajectory.trips.trips_to_trajectories`
    followed by :func:`aggregate_trajectory_demand`, but without
    materializing the trajectories: both walk
    :func:`~repro.trajectory.trips.accepted_trip_paths`, and each accepted
    trip adds one count along its edge path. Returns the number of
    accepted trips; the road is left unchanged if the trips are invalid.
    """
    counts = [0] * road.n_edges
    accepted = 0
    for _trip, edges in accepted_trip_paths(road, trips, tolerance):
        for eid in edges:
            counts[eid] += 1
        accepted += 1
    if reset:
        road.reset_demand()
    for eid, count in enumerate(counts):
        if count:
            road.add_demand(eid, float(count))
    return accepted


def demand_of_road_edges(road: RoadNetwork, edge_ids: Iterable[int]) -> float:
    """``sum f_e * |e|`` over the given road edges — Eq. 4 for one path."""
    return sum(road.edge_demand(e) * road.edge_length(e) for e in edge_ids)
