"""Comparable approaches (paper Section 2, "Comparable Approaches").

:mod:`repro.baselines.connectivity_first` is the graph-augmentation
approach of Chan et al. [22] / Wei et al. [63]: greedily add ``l``
discrete edges maximizing natural connectivity, then try to stitch
them into a route with TSP ordering + shortest-path connectors
(Figure 6 shows why this fails to produce a smooth route);
:mod:`repro.baselines.tsp` holds its ordering toolkit.

The demand-first baseline, vk-TSP, is the CT-Bus traversal itself under
``w = 1`` over new edges only, so it is a row of
:data:`repro.core.planner.METHOD_TABLE`: ``run_method(pre, "vk-tsp")``.
"""

from repro.baselines.connectivity_first import (
    ConnectivityFirstResult,
    connectivity_first_route,
    greedy_connectivity_edges,
)
from repro.baselines.tsp import held_karp_order, nearest_neighbor_order, two_opt

__all__ = [
    "ConnectivityFirstResult",
    "connectivity_first_route",
    "greedy_connectivity_edges",
    "held_karp_order",
    "nearest_neighbor_order",
    "two_opt",
]
