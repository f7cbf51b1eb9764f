"""Bring your own data: build a city by hand and exchange GTFS/DIMACS/CSV.

Run with::

    python examples/custom_city_gtfs.py

Shows the data-layer API a downstream user would touch when feeding real
data into CT-Bus:

1. construct a small road network and transit routes programmatically,
2. feed trips through the 5%-tolerance trajectory filter and aggregate
   edge demand,
3. round-trip everything through the on-disk formats (DIMACS roads,
   GTFS-lite transit, CSV trips),
4. plan a route on the hand-built city.
"""

import os
import tempfile

from repro import CTBusPlanner, PlannerConfig, RoadNetwork, TransitNetwork, TripRecord
from repro.data import read_dimacs, read_gtfs, read_trips_csv
from repro.data import write_dimacs, write_gtfs, write_trips_csv
from repro.data.datasets import Dataset
from repro.data.synth import SynthConfig
from repro.network.shortest_path import PathForest, reconstruct_edge_path
from repro.trajectory.demand import aggregate_trip_demand


def road_path(road: RoadNetwork, a: int, b: int) -> tuple[float, list[int]]:
    """Length and road-edge ids of a shortest road path from ``a`` to ``b``."""
    forest = PathForest(road.n_vertices, road.edge_list())
    ((_, dist, pred_v, pred_e),) = forest.trees(road.edge_lengths(), [a])
    return dist[b], reconstruct_edge_path(pred_v, pred_e, a, b)


def build_road() -> RoadNetwork:
    """A 6x4 Manhattan-ish grid, 250 m blocks."""
    road = RoadNetwork()
    for gy in range(4):
        for gx in range(6):
            road.add_vertex(gx * 0.25, gy * 0.25)
    for gy in range(4):
        for gx in range(6):
            v = gy * 6 + gx
            if gx < 5:
                road.add_edge(v, v + 1)
            if gy < 3:
                road.add_edge(v, v + 6)
    return road


def build_transit(road: RoadNetwork) -> TransitNetwork:
    """Two crossing lines sharing a hub at road vertex 9."""
    transit = TransitNetwork()
    stop_of = {}
    for v in (0, 2, 9, 4, 23, 21, 9, 18):  # two lines' road vertices
        if v not in stop_of:
            x, y = road.vertex_xy(v)
            stop_of[v] = transit.add_stop(x, y, road_vertex=v)

    def road_route(vertices):
        stops, lengths, paths = [], [], []
        for a, b in zip(vertices, vertices[1:]):
            d, epath = road_path(road, a, b)
            stops.append(stop_of[a])
            lengths.append(d)
            paths.append(tuple(epath))
        stops.append(stop_of[vertices[-1]])
        return stops, lengths, paths

    s, l, p = road_route([0, 2, 9, 4])
    transit.add_route("crosstown", s, l, p)
    s, l, p = road_route([21, 9, 18])
    transit.add_route("uptown", s, l, p)
    return transit


def main() -> None:
    road = build_road()
    transit = build_transit(road)
    print(f"Hand-built city: {road} / {transit}")

    # Trips: morning commute into the hub + one noisy record that the
    # 5% tolerance filter must drop.
    trips = []
    for origin, dest in [(0, 9), (5, 9), (23, 9), (18, 2), (0, 4)] * 40:
        d, epath = road_path(road, origin, dest)
        t = sum(road.edge_travel_time(e) for e in epath)
        trips.append(TripRecord(origin, dest, d, t))
    trips.append(TripRecord(0, 23, 100.0, 500.0))  # bogus odometer
    accepted = aggregate_trip_demand(road, trips)
    print(f"Trips accepted by the 5% tolerance filter: {accepted}/{len(trips)}")

    # Round-trip through the on-disk formats.
    with tempfile.TemporaryDirectory() as tmp:
        write_dimacs(road, os.path.join(tmp, "city.gr"), os.path.join(tmp, "city.co"))
        write_gtfs(transit, os.path.join(tmp, "gtfs"))
        write_trips_csv(trips, os.path.join(tmp, "trips.csv"))
        road2 = read_dimacs(os.path.join(tmp, "city.gr"), os.path.join(tmp, "city.co"))
        transit2 = read_gtfs(os.path.join(tmp, "gtfs"))
        trips2 = read_trips_csv(os.path.join(tmp, "trips.csv"))
        print(f"Round-tripped: {road2.n_vertices} road vertices, "
              f"{transit2.n_routes} routes, {len(trips2)} trips")

    # Plan on the hand-built dataset.
    dataset = Dataset(
        name="handmade",
        config=SynthConfig(name="handmade"),
        road=road,
        transit=transit,
        trips=trips,
        accepted_trips=accepted,
    )
    planner = CTBusPlanner(
        dataset,
        PlannerConfig(k=4, tau_km=0.6, max_iterations=200, seed_count=50),
    )
    result = planner.plan("eta-pre")
    print(f"\nPlanned route stops: {result.route.stops}")
    print(f"  {result.route.n_new_edges} new edges, "
          f"objective {result.objective:.4f}")
    print("  The planner links the two lines with new edges where the")
    print("  commute demand concentrates around the hub.")


if __name__ == "__main__":
    main()
