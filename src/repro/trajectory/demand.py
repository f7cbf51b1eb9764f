"""Edge demand aggregation (paper Eq. 4).

``O_d(mu) = sum_{e in mu} f_e * |e|`` where ``f_e`` counts trajectories
traversing road edge ``e``. Aggregation writes ``f_e`` onto the road
network so every later demand lookup is an O(1) array access.
"""

from __future__ import annotations

from repro.network.road import RoadNetwork
from repro.trajectory.trips import TripRecord, accepted_trip_paths


def aggregate_trip_demand(road: RoadNetwork, trips: list[TripRecord]) -> int:
    """Set ``f_e`` on ``road`` from trip records.

    Each trip :func:`~repro.trajectory.trips.accepted_trip_paths`
    accepts adds one count along its edge path; every other edge's
    demand is reset to 0. Returns the number of accepted trips; the road
    is left unchanged if the trips are invalid.
    """
    counts = [0] * road.n_edges
    accepted = 0
    for _trip, edges in accepted_trip_paths(road, trips):
        for eid in edges:
            counts[eid] += 1
        accepted += 1
    road.reset_demand()
    for eid, count in enumerate(counts):
        if count:
            road.add_demand(eid, float(count))
    return accepted
