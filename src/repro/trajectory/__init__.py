"""Taxi trips and edge-demand aggregation.

Implements the trip acceptance rule of Section 7.1.1 (a trip's shortest
road path is accepted when its distance and time are within 5% of the
recorded trip) and the edge-demand aggregation ``f_e`` consumed by
Eq. 4. The paper takes map-matched trajectories as given; here each
accepted trip's shortest path stands in for one.
"""

from repro.trajectory.demand import aggregate_trip_demand
from repro.trajectory.trips import TripRecord

__all__ = [
    "aggregate_trip_demand",
    "TripRecord",
]
