"""Route evaluation metrics (Table 6's right-hand columns).

Given a planned route, materialize it into a copy of the transit network
and measure, over the OD stop pairs along the route:

* average transfers needed in the old network (``#Transfer avoided`` —
  the new route serves them directly),
* the distance ratio ``zeta(mu)`` of Eq. 13,
* the number of existing routes crossed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.precompute import Precomputation
from repro.core.result import PlannedRoute
from repro.eval.transfers import TransferRouter
from repro.network.shortest_path import dijkstra
from repro.network.transit import TransitNetwork
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class RouteEvaluation:
    """Transfer-convenience metrics for one planned route."""

    n_edges: int
    n_new_edges: int
    objective: float
    o_lambda_normalized: float
    transfers_avoided: float
    """Mean transfers the route's OD pairs needed in the old network."""
    distance_ratio: float
    """zeta(mu): mean old/new shortest-distance ratio (>= 1)."""
    crossed_routes: int
    """Existing routes sharing at least one stop with the new route."""
    unreachable_pairs: int
    """OD pairs with no old-network transit connection at all."""

    def as_row(self) -> dict[str, float]:
        return {
            "#new edges": self.n_new_edges,
            "objective": round(self.objective, 4),
            "connectivity": round(self.o_lambda_normalized, 4),
            "#transfers avoided": round(self.transfers_avoided, 2),
            "distance ratio": round(self.distance_ratio, 2),
            "#crossed routes": self.crossed_routes,
        }


def materialize_route(
    pre: Precomputation, route: PlannedRoute, name: str = "planned"
) -> TransitNetwork:
    """A copy of the transit network with ``route`` added as a real route."""
    transit = pre.universe.transit.copy()
    lengths = [float(pre.universe.length[i]) for i in route.edge_indices]
    road_paths = [pre.universe.edge(i).road_path for i in route.edge_indices]
    transit.add_route(name, list(route.stops), lengths, road_paths)
    return transit


def evaluate_planned_route(
    pre: Precomputation,
    route: PlannedRoute,
    objective: float = 0.0,
    o_lambda_normalized: float = 0.0,
    max_pairs: int = 2000,
) -> RouteEvaluation:
    """Compute all Table 6 metrics for ``route``.

    ``max_pairs`` caps the OD pairs evaluated (they grow quadratically in
    route length); the first stops in route order are used beyond it.
    """
    if route.n_stops < 2:
        raise ValidationError("route must have at least 2 stops")
    old = pre.universe.transit
    new = materialize_route(pre, route)

    stops = list(dict.fromkeys(route.stops))  # unique, order kept (loops)
    pairs = [(a, b) for a in stops for b in stops if a != b]
    if len(pairs) > max_pairs:
        pairs = pairs[:max_pairs]

    # --- transfers avoided -------------------------------------------
    router = TransferRouter(old)
    transfer_counts = []
    unreachable = 0
    for a, b in pairs:
        t = router.min_transfers(a, b)
        if t is None:
            unreachable += 1
        else:
            transfer_counts.append(float(t))
    transfers_avoided = sum(transfer_counts) / len(transfer_counts) if transfer_counts else 0.0

    # --- distance ratio zeta (Eq. 13) --------------------------------
    old_adj = old.adjacency_lists("length")
    new_adj = new.adjacency_lists("length")
    ratios = []
    by_origin: dict[int, list[int]] = {}
    for a, b in pairs:
        by_origin.setdefault(a, []).append(b)
    for a, dests in by_origin.items():
        old_dist, _, _ = dijkstra(old_adj, a, targets=set(dests))
        new_dist, _, _ = dijkstra(new_adj, a, targets=set(dests))
        for b in dests:
            if math.isinf(old_dist[b]) or math.isinf(new_dist[b]) or new_dist[b] <= 0:
                continue
            ratios.append(old_dist[b] / new_dist[b])
    distance_ratio = sum(ratios) / len(ratios) if ratios else 1.0

    # --- crossed routes ----------------------------------------------
    crossed: set[int] = set()
    for s in stops:
        crossed |= {r for r in router.routes_at(s)}
    # Routes sharing only interior geometry don't count; stop sharing does.

    return RouteEvaluation(
        n_edges=route.n_edges,
        n_new_edges=route.n_new_edges,
        objective=objective,
        o_lambda_normalized=o_lambda_normalized,
        transfers_avoided=transfers_avoided,
        distance_ratio=distance_ratio,
        crossed_routes=len(crossed),
        unreachable_pairs=unreachable,
    )
