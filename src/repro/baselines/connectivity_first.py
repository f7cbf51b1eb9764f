"""Connectivity-first baseline (Chan et al. [22] / Wei et al. [63]).

Greedily add ``l`` discrete edges that maximize natural connectivity —
the classical graph-augmentation approach — then attempt to stitch them
into a bus route: order the chosen edges with a TSP search over their
midpoints and connect consecutive endpoints with shortest road paths.

The paper's Figure 6 point is that the greedy edges scatter across the
city, so the stitched "route" is long and twisted; :func:`route_quality`
quantifies that (connector overhead, turns, spatial spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.tsp import nearest_neighbor_order, two_opt
from repro.core.precompute import Precomputation
from repro.network.geometry import euclidean
from repro.network.paths import count_turns
from repro.network.shortest_path import PathForest, reconstruct_vertex_path
from repro.utils.errors import PlanningError


@dataclass
class ConnectivityFirstResult:
    """Outcome of the connectivity-first pipeline."""

    edge_indices: list[int]
    """Universe indices of the greedily chosen discrete edges."""
    total_increment: float
    """Estimated connectivity increment of all chosen edges together."""
    order: list[int]
    """TSP visiting order over the chosen edges."""
    stitched_road_vertices: list[int]
    """Road-vertex polyline of the stitched route (may be long/twisty)."""
    connector_km: float
    """Total length of shortest-path connectors between chosen edges."""
    chosen_km: float
    """Total length of the chosen edges themselves."""
    turns: int
    """Turns along the stitched polyline (paper's smoothness argument)."""
    spread_km: float
    """Mean pairwise distance between chosen-edge midpoints."""

    @property
    def connector_overhead(self) -> float:
        """Connector length per km of chosen edge — high = not a route."""
        return self.connector_km / self.chosen_km if self.chosen_km > 0 else math.inf


def greedy_connectivity_edges(
    pre: Precomputation, l_edges: int, shortlist: int = 64
) -> tuple[list[int], float]:
    """Greedy k-edge augmentation maximizing natural connectivity.

    Each round prices a shortlist of the currently best candidates (by
    their static ``Delta(e)`` ranking), each added to the edges chosen
    so far, with one
    :meth:`~repro.core.precompute.Precomputation.connectivity_gains`
    call in the precomputation's ``increment_mode``, then commits the
    winner — the Chan et al. greedy with the planners' gain formula
    inside. Every set of a round holds the chosen edges, so the largest
    gain over ``G_r`` is the largest marginal gain.

    Returns ``(chosen universe edge indices, total connectivity gain)``.
    """
    if l_edges < 1:
        raise PlanningError(f"l_edges must be >= 1, got {l_edges}")
    universe = pre.universe
    candidates = [i for i in range(len(universe)) if universe.is_new[i]]
    if not candidates:
        raise PlanningError("no candidate new edges to augment with")
    candidates.sort(key=lambda i: -universe.delta[i])

    chosen: list[int] = []
    chosen_pairs: list[tuple[int, int]] = []
    for _ in range(min(l_edges, len(candidates))):
        pool = [i for i in candidates[:shortlist] if i not in chosen]
        if not pool:
            break
        gains = pre.connectivity_gains(
            [chosen_pairs + [universe.edge(i).pair] for i in pool]
        )
        best_idx = pool[int(np.argmax(gains))]
        chosen.append(best_idx)
        chosen_pairs.append(universe.edge(best_idx).pair)
    total = pre.connectivity_gains([chosen_pairs])[0]
    return chosen, float(total)


def connectivity_first_route(
    pre: Precomputation, l_edges: int = 10, shortlist: int = 64
) -> ConnectivityFirstResult:
    """Run the full pipeline: greedy edges -> TSP order -> stitching."""
    universe = pre.universe
    transit = universe.transit
    road_coords = universe.transit.stop_coords  # stop frame
    chosen, total_inc = greedy_connectivity_edges(pre, l_edges, shortlist)

    midpoints = []
    for i in chosen:
        e = universe.edge(i)
        a = road_coords[e.u]
        b = road_coords[e.v]
        midpoints.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
    n = len(chosen)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = euclidean(midpoints[i], midpoints[j])
    order = two_opt(dist, nearest_neighbor_order(dist)) if n > 1 else list(range(n))

    # Stitch: walk chosen edges in order, connecting with shortest road paths.
    road = _road_of(pre)
    forest = PathForest(road.n_vertices, road.edge_list())
    lengths = road.edge_lengths()
    polyline: list[int] = []
    connector_km = 0.0
    prev_exit: "int | None" = None
    for pos in order:
        e = universe.edge(chosen[pos])
        ru = transit.stop_road_vertex(e.u)
        rv = transit.stop_road_vertex(e.v)
        if prev_exit is None:
            entry, exit_ = ru, rv
        else:
            # Enter through whichever endpoint is road-closer to the exit.
            ((_, dist_from_exit, pred_v, _),) = forest.trees(lengths, [prev_exit])
            if dist_from_exit[ru] <= dist_from_exit[rv]:
                entry, exit_ = ru, rv
            else:
                entry, exit_ = rv, ru
            conn = dist_from_exit[entry]
            if math.isinf(conn):
                continue  # disconnected fragment: skip (counts against smoothness)
            connector_km += conn
            conn_path = reconstruct_vertex_path(pred_v, prev_exit, entry)
            polyline.extend(conn_path[1:] if polyline else conn_path)
        if not polyline:
            polyline.append(entry)
        polyline.append(exit_)
        prev_exit = exit_

    coords = [road.vertex_xy(v) for v in polyline]
    turns, _sharp = count_turns(coords)
    chosen_km = float(universe.length[chosen].sum()) if chosen else 0.0
    spread = 0.0
    if n > 1:
        spread = float(sum(dist[i, j] for i in range(n) for j in range(i + 1, n)))
        spread /= n * (n - 1) / 2.0
    return ConnectivityFirstResult(
        edge_indices=chosen,
        total_increment=total_inc,
        order=order,
        stitched_road_vertices=polyline,
        connector_km=connector_km,
        chosen_km=chosen_km,
        turns=turns,
        spread_km=spread,
    )


def _road_of(pre: Precomputation):
    """The road network stitching happens on (set by ``precompute()``)."""
    if pre.road is None:
        raise PlanningError(
            "precomputation lacks a road-network reference; build it via "
            "repro.core.precompute.precompute()"
        )
    return pre.road
