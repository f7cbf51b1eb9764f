"""Transfer-convenience evaluation (paper Section 7.2.2 / Table 6).

Three metrics over the commuters served by a newly planned route ``mu``:

* **transfers avoided** — average minimum number of transfers those
  OD pairs needed in the *old* network (the new route makes them direct);
* **distance ratio** ``zeta(mu)`` (Eq. 13) — old-network shortest travel
  distance over new-network distance, averaged over OD pairs;
* **crossed routes** — how many existing routes share a stop with ``mu``.
"""

from repro.eval.metrics import RouteEvaluation, evaluate_planned_route
from repro.eval.report import effectiveness_row, format_effectiveness_table
from repro.eval.route_stats import RouteStats, route_stats
from repro.eval.transfers import TransferRouter

__all__ = [
    "RouteEvaluation",
    "evaluate_planned_route",
    "effectiveness_row",
    "format_effectiveness_table",
    "RouteStats",
    "route_stats",
    "TransferRouter",
]
