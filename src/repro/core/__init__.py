"""CT-Bus core: the paper's primary contribution.

Problem: plan one new bus route with at most ``k`` edges over an
existing transit network (no new stops) maximizing
``w * O_d/d_max + (1 - w) * O_lambda/lambda_max`` (Definition 6).

Entry points:

* :class:`~repro.core.planner.CTBusPlanner` — facade over all variants,
* :func:`~repro.core.precompute.precompute` — the shared pre-computation,
* :func:`~repro.core.planner.run_method` — the one door into the search:
  ETA, ETA-Pre, ETA-ALL and vk-TSP are rows of
  :data:`~repro.core.planner.METHOD_TABLE` (a strategy and config
  overrides over the one Algorithm 1 engine).
"""

from repro.core.bounds import RankedList, initial_bound, rescan_bound, update_bound
from repro.core.candidate import Candidate, seed_candidate
from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.core.eta import ExpansionEngine
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.planner import (
    CONSTRAINED_METHODS,
    METHOD_TABLE,
    METHODS,
    CTBusPlanner,
    run_method,
)
from repro.core.precompute import (
    Precomputation,
    compute_edge_increments,
    precompute,
    rebind,
)
from repro.core.result import PlannedRoute, PlanResult
from repro.core.seeding import build_edge_universe, candidate_stop_pairs

__all__ = [
    "RankedList",
    "initial_bound",
    "rescan_bound",
    "update_bound",
    "Candidate",
    "seed_candidate",
    "PlannerConfig",
    "PlanningConstraints",
    "EdgeUniverse",
    "PlanEdge",
    "ExpansionEngine",
    "OnlineStrategy",
    "PrecomputedStrategy",
    "CONSTRAINED_METHODS",
    "METHOD_TABLE",
    "METHODS",
    "CTBusPlanner",
    "run_method",
    "Precomputation",
    "compute_edge_increments",
    "precompute",
    "rebind",
    "PlannedRoute",
    "PlanResult",
    "build_edge_universe",
    "candidate_stop_pairs",
]
