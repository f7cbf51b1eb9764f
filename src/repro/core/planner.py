"""High-level planning facade.

:class:`CTBusPlanner` wraps the dataset + config + precomputation
lifecycle and exposes every planner variant by name:

* ``"eta-pre"`` — pre-computation-accelerated (Section 6, default),
* ``"eta"`` — online Lanczos evaluation (Sections 4-5),
* ``"eta-all"`` — all edges as seeds (the Fig. 9 comparison),
* ``"vk-tsp"`` — demand-first baseline (``w = 1``, new edges only).

Multi-route planning (Section 6.3) replans after materializing each
accepted route and zeroing the demand its edges already serve.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro.core.config import PlannerConfig
from repro.core.eta import run_eta, run_eta_all
from repro.core.eta_pre import run_eta_pre
from repro.core.precompute import Precomputation, precompute
from repro.core.result import PlannedRoute, PlanResult
from repro.data.datasets import Dataset
from repro.utils.errors import PlanningError, ValidationError

METHODS = ("eta-pre", "eta", "eta-all", "vk-tsp")


def run_method(pre: Precomputation, method: str) -> PlanResult:
    """Run one planner variant against a prepared precomputation.

    The single dispatch point shared by :meth:`CTBusPlanner.plan` and
    the sweep engine, so both are guaranteed to agree method-for-method.
    """
    if method not in METHODS:
        raise PlanningError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "eta-pre":
        return run_eta_pre(pre)
    if method == "eta":
        return run_eta(pre)
    if method == "eta-all":
        return run_eta_all(pre)
    # vk-TSP: demand-only objective over new edges, same traversal;
    # the baseline re-normalizes with the caller's w so Table 6-style
    # comparisons are apples-to-apples.
    from repro.baselines.demand_first import run_vk_tsp

    return run_vk_tsp(pre)


class CTBusPlanner:
    """Plan new bus routes over a dataset.

    ``cache`` (optional) is a :class:`repro.sweep.cache.PrecomputationCache`
    — or anything with its ``fetch_or_compute(dataset, config)`` shape —
    shared across planners, worker processes, and CLI invocations so
    warm artifacts replace the expensive precomputation entirely.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: "PlannerConfig | None" = None,
        cache=None,
    ):
        self.dataset = dataset
        self.config = config or PlannerConfig()
        self.cache = cache
        self._pre: "Precomputation | None" = None
        #: Whether the precomputation came from the cache (``None`` until
        #: it is built, or when no cache is attached).
        self.precompute_cache_hit: "bool | None" = None

    # ------------------------------------------------------------------
    @property
    def precomputation(self) -> Precomputation:
        """The shared pre-computation (built lazily, cached)."""
        if self._pre is None:
            if self.cache is not None:
                self._pre, self.precompute_cache_hit = self.cache.fetch_or_compute(
                    self.dataset, self.config
                )
            else:
                self._pre = precompute(self.dataset, self.config)
        return self._pre

    def plan(self, method: str = "eta-pre") -> PlanResult:
        """Run one planner variant and return its result."""
        if method not in METHODS:
            # Duplicates run_method's guard on purpose: fail before the
            # (potentially very expensive) lazy precomputation is built.
            raise PlanningError(f"unknown method {method!r}; choose from {METHODS}")
        return run_method(self.precomputation, method)

    def plan_constrained(self, constraints, method: str = "eta-pre") -> PlanResult:
        """Interactive replanning under :class:`PlanningConstraints`.

        Reuses the cached pre-computation, so successive constrained
        replans cost only the (fast) search — the interactive-planning
        use case the paper cites to justify pre-computation (Sec. 7.3.2,
        Insight 4). A stop or edge id outside this city raises
        :class:`PlanningError` naming the id.
        """
        if method not in ("eta-pre", "eta"):
            raise PlanningError(
                f"constrained planning supports 'eta-pre' and 'eta', got {method!r}"
            )
        from repro.core.constraints import PlanningConstraints

        if not isinstance(constraints, PlanningConstraints):
            raise PlanningError(
                "plan_constrained requires a PlanningConstraints instance, got "
                f"{type(constraints).__name__}; use plan() for unconstrained runs"
            )
        from repro.core.eta import ExpansionEngine
        from repro.core.objective import OnlineStrategy, PrecomputedStrategy

        pre = self.precomputation
        strategy = PrecomputedStrategy(pre) if method == "eta-pre" else OnlineStrategy(pre)
        try:
            engine = ExpansionEngine(pre, strategy, constraints=constraints)
        except ValidationError as exc:  # an id this city does not have
            raise PlanningError(f"constraints do not fit this city: {exc}") from None
        result = engine.run()
        result.method = f"{method}+constraints"
        return result

    # ------------------------------------------------------------------
    def plan_multiple(
        self, count: int, method: str = "eta-pre", zero_covered_demand: bool = True
    ) -> list[PlanResult]:
        """Plan ``count`` routes sequentially (paper Section 6.3).

        After each accepted route the transit network gains its edges,
        and (optionally) the demand of covered road edges drops to zero
        so later routes chase *unmet* demand. Stops early if a round
        produces no feasible route.
        """
        if count < 1:
            raise PlanningError(f"count must be >= 1, got {count}")
        results: list[PlanResult] = []
        planner = self
        for round_index in range(count):
            result = planner.plan(method)
            if result.route is None or result.route.n_edges == 0:
                break
            results.append(result)
            if round_index + 1 < count:
                planner = planner._advanced(result.route, zero_covered_demand)
        return results

    def _advanced(self, route: PlannedRoute, zero_covered_demand: bool) -> "CTBusPlanner":
        """A new planner whose dataset includes ``route`` as an adopted line."""
        pre = self.precomputation
        road = self.dataset.road.copy()
        if zero_covered_demand:
            for idx in route.edge_indices:
                for road_edge in pre.universe.edge(idx).road_path:
                    road.set_demand(road_edge, 0.0)
        transit = self.dataset.transit.copy()
        lengths = [float(pre.universe.length[i]) for i in route.edge_indices]
        road_paths = [pre.universe.edge(i).road_path for i in route.edge_indices]
        transit.add_planned_route(
            f"planned-{transit.n_routes}", list(route.stops), lengths, road_paths
        )
        new_dataset = dataclass_replace(self.dataset, road=road, transit=transit)
        return CTBusPlanner(new_dataset, self.config, cache=self.cache)
