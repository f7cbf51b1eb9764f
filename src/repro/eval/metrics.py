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
from repro.network.shortest_path import PathForest
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


def _length_trees(net: TransitNetwork, origins: list[int]):
    """Shortest-path trees over ``net``'s edge lengths, one per origin."""
    lengths = [net.edge_length(e) for e in range(net.n_edges)]
    return PathForest(net.n_stops, net.edge_list()).trees(lengths, origins)


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
    new = pre.universe.materialize(route, "planned")

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
    ratios = []
    by_origin: dict[int, list[int]] = {}
    for a, b in pairs:
        by_origin.setdefault(a, []).append(b)
    origins = list(by_origin)
    for (a, old_dist, _, _), (_, new_dist, _, _) in zip(
        _length_trees(old, origins), _length_trees(new, origins)
    ):
        for b in by_origin[a]:
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
