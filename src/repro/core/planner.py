"""High-level planning: the method table and the :class:`CTBusPlanner` facade.

Every planner variant is the one Algorithm 1 traversal of
:class:`~repro.core.eta.ExpansionEngine`. A method differs only in the
strategy that scores a candidate and in a few config fields, which
:data:`METHOD_TABLE` declares:

* ``"eta-pre"`` — pre-computed integrated increments (Section 6, default),
* ``"eta"`` — online Lanczos evaluation (Sections 4-5),
* ``"eta-all"`` — every edge seeds a breadth-first queue (Fig. 9),
* ``"vk-tsp"`` — demand-first baseline: ``w = 1`` over new edges only
  (Sec. 7.2.1).

:func:`run_method` is the one door into the search, for the facade,
the sweep engine, the server and the benchmarks alike.

Multi-route planning (Section 6.3) replans after materializing each
accepted route and zeroing the demand its edges already serve.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.eta import ExpansionEngine
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.precompute import Precomputation, precompute, rebind
from repro.core.result import PlannedRoute, PlanResult
from repro.data.datasets import Dataset
from repro.utils.errors import PlanningError, ValidationError

METHOD_TABLE: dict[
    str, tuple[type[OnlineStrategy | PrecomputedStrategy], dict[str, object]]
] = {
    "eta-pre": (PrecomputedStrategy, {}),
    "eta": (OnlineStrategy, {}),
    # The classical expansion framework: no selective seeding and no
    # bound-ordered scanning, hence the slow convergence of Fig. 9.
    "eta-all": (OnlineStrategy, {"seed_count": None, "queue_discipline": "fifo"}),
    # Demand alone over at most k new edges: the k-TSP variant of
    # trajectory clustering's refinement step [58].
    "vk-tsp": (PrecomputedStrategy, {"w": 1.0, "new_edges_only": True}),
}
"""Method name -> (strategy class, :class:`PlannerConfig` overrides)."""

METHODS = tuple(METHOD_TABLE)

CONSTRAINED_METHODS = tuple(
    name for name, (_, overrides) in METHOD_TABLE.items() if not overrides
)
"""The methods that take :class:`PlanningConstraints`: a constrained
replan searches the caller's own config, which a row with overrides
replaces."""


def check_method(method: str, constrained: bool = False) -> None:
    """Refuse a method the table lacks, or constraints it does not take."""
    if method not in METHOD_TABLE:
        raise PlanningError(f"unknown method {method!r}; choose from {METHODS}")
    if constrained and method not in CONSTRAINED_METHODS:
        raise PlanningError(
            f"constrained planning supports {CONSTRAINED_METHODS}, got {method!r}"
        )


def run_method(
    pre: Precomputation,
    method: str,
    constraints: "PlanningConstraints | None" = None,
) -> PlanResult:
    """Run one planner variant against a prepared precomputation.

    A row with config overrides runs on a :func:`rebind` of ``pre`` and
    its ``objective``, ``o_d_normalized`` and ``o_lambda_normalized``
    are re-reported under the caller's ``w`` and normalizers, so every
    method's result is comparable (the paper's Table 6 columns).
    ``constraints`` turns the run into an interactive replan (Sec.
    7.3.2): a stop or edge id outside this city raises
    :class:`PlanningError` naming the id. The result is named
    ``<method>``, or ``<method>+constraints``.
    """
    check_method(method, constrained=constraints is not None)
    strategy, overrides = METHOD_TABLE[method]
    run_pre = rebind(pre, pre.config.variant(**overrides)) if overrides else pre
    try:
        engine = ExpansionEngine(run_pre, strategy(run_pre), constraints)
    except ValidationError as exc:  # an id this city does not have
        raise PlanningError(f"constraints do not fit this city: {exc}") from None
    result = engine.run()
    if run_pre is not pre:
        result.objective = pre.objective(result.o_d, result.o_lambda)
        result.o_d_normalized = result.o_d / pre.d_max
        result.o_lambda_normalized = result.o_lambda / pre.lambda_max
    result.method = method if constraints is None else f"{method}+constraints"
    return result


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
        # Fail before the (potentially very expensive) lazy precomputation.
        check_method(method)
        return run_method(self.precomputation, method)

    def plan_constrained(self, constraints, method: str = "eta-pre") -> PlanResult:
        """Interactive replanning under :class:`PlanningConstraints`.

        Reuses the cached pre-computation, so successive constrained
        replans cost only the (fast) search — the interactive-planning
        use case the paper cites to justify pre-computation (Sec. 7.3.2,
        Insight 4). A stop or edge id outside this city raises
        :class:`PlanningError` naming the id.
        """
        check_method(method, constrained=True)
        if not isinstance(constraints, PlanningConstraints):
            raise PlanningError(
                "plan_constrained requires a PlanningConstraints instance, got "
                f"{type(constraints).__name__}; use plan() for unconstrained runs"
            )
        return run_method(self.precomputation, method, constraints)

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
        transit = pre.universe.materialize(
            route, f"planned-{self.dataset.transit.n_routes}"
        )
        new_dataset = dataclass_replace(self.dataset, road=road, transit=transit)
        return CTBusPlanner(new_dataset, self.config, cache=self.cache)
