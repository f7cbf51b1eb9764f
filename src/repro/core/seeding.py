"""Candidate-edge generation (Section 4.2.1).

``CandidateEdges(G_r, tau, G)``: every stop pair within straight-line
distance ``tau`` that is not already a transit edge becomes a *candidate
new edge*. Its geometry and demand come from a shortest road path
between the stops' road vertices (demands of crossed road edges are
aggregated, Eq. 4). Existing transit edges join the universe with the
demand of their recorded road paths.
"""

from __future__ import annotations

import math

from repro.data.datasets import Dataset
from repro.network.geometry import GridIndex, euclidean
from repro.network.shortest_path import PathForest, reconstruct_edge_path
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.utils.errors import DataError
from repro.utils.validation import require_positive


def candidate_stop_pairs(dataset: Dataset, tau_km: float) -> list[tuple[int, int]]:
    """All unconnected stop pairs within ``tau_km`` (sorted, deduplicated)."""
    require_positive(tau_km, "tau_km")
    transit = dataset.transit
    coords = transit.stop_coords
    if len(coords) == 0:
        return []
    index = GridIndex(coords, cell=tau_km)
    pairs = []
    for u, v in index.pairs_within(tau_km):
        if transit.edge_between(u, v) is None:
            pairs.append((u, v))
    pairs.sort()
    return pairs


def build_edge_universe(dataset: Dataset, tau_km: float) -> EdgeUniverse:
    """Assemble the full planning universe for ``dataset``.

    New-edge shortest paths are grouped by source road vertex so each
    distinct origin costs one shortest-path tree of the road's
    :class:`~repro.network.shortest_path.PathForest`.
    """
    transit = dataset.transit
    road = dataset.road
    edges: list[PlanEdge] = []

    # Existing transit edges: demand from their recorded road paths.
    for eid in range(transit.n_edges):
        u, v = transit.edge_endpoints(eid)
        road_path = transit.edge_road_path(eid)
        demand = sum(
            road.edge_demand(re) * road.edge_length(re) for re in road_path
        )
        edges.append(
            PlanEdge(
                index=len(edges),
                u=u,
                v=v,
                length=transit.edge_length(eid),
                demand=demand,
                is_new=False,
                transit_eid=eid,
                road_path=road_path,
            )
        )

    # Candidate new edges: shortest road path between the stops.
    pairs = candidate_stop_pairs(dataset, tau_km)
    by_origin: dict[int, list[tuple[int, int]]] = {}
    for u, v in pairs:
        ru = transit.stop_road_vertex(u)
        rv = transit.stop_road_vertex(v)
        if ru < 0 or rv < 0:
            raise DataError(
                f"stops {u}/{v} lack road affiliation; cannot price new edge"
            )
        by_origin.setdefault(ru, []).append((u, v))

    demand_w = road.demand_weights()
    trees = PathForest(road.n_vertices, road.edge_list()).trees(
        road.edge_lengths(), list(by_origin)
    )
    for origin, dist, pred_v, pred_e in trees:
        for u, v in by_origin[origin]:
            rv = transit.stop_road_vertex(v)
            if math.isinf(dist[rv]):
                continue  # disconnected in the road network: not plannable
            road_path = tuple(reconstruct_edge_path(pred_v, pred_e, origin, rv))
            demand = float(sum(demand_w[re] for re in road_path))
            length = dist[rv] if road_path else euclidean(
                transit.stop_xy(u), transit.stop_xy(v)
            )
            edges.append(
                PlanEdge(
                    index=len(edges),
                    u=u,
                    v=v,
                    length=length,
                    demand=demand,
                    is_new=True,
                    transit_eid=-1,
                    road_path=road_path,
                )
            )
    return EdgeUniverse(transit, edges)
