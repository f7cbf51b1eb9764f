"""Planning results: the planned route and search diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.edges import EdgeUniverse
from repro.utils.wire import Record


@dataclass(frozen=True)
class PlannedRoute(Record):
    """A concrete planned bus route.

    ``edge_indices`` reference the planning universe; ``new_pairs`` are
    the stop pairs that did not exist in ``G_r`` (they extend the
    adjacency matrix when the route is adopted).
    """

    stops: tuple[int, ...]
    edge_indices: tuple[int, ...]
    new_pairs: tuple[tuple[int, int], ...]
    length_km: float
    turns: int

    @property
    def n_edges(self) -> int:
        return len(self.edge_indices)

    @property
    def n_new_edges(self) -> int:
        return len(self.new_pairs)

    @property
    def n_stops(self) -> int:
        return len(self.stops)

    @classmethod
    def from_edges(
        cls, universe: EdgeUniverse, stops: tuple[int, ...], edge_ids: tuple[int, ...], turns: int
    ) -> "PlannedRoute":
        return cls(
            stops=stops,
            edge_indices=edge_ids,
            new_pairs=tuple(universe.new_pairs(edge_ids)),
            length_km=universe.length[list(edge_ids)].sum(),
            turns=turns,
        )


@dataclass
class PlanResult(Record):
    """Outcome of one planner run.

    ``objective``/``o_d``/``o_lambda`` are the *exact-evaluated* values
    (connectivity re-estimated with the Lanczos method even for ETA-Pre,
    as in the paper's final reporting); ``search_score`` is the value the
    search itself optimized (identical for ETA, the linear ``L_e`` sum
    for ETA-Pre).
    """

    method: str
    route: "PlannedRoute | None"
    objective: float
    o_d: float
    o_lambda: float
    o_d_normalized: float
    o_lambda_normalized: float
    search_score: float
    iterations: int
    runtime_s: float
    connectivity_evaluations: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    queue_pushes: int = 0
    pruned_by_bound: int = 0
    pruned_by_domination: int = 0

    @property
    def found(self) -> bool:
        return self.route is not None

    def summary(self) -> dict[str, float]:
        """Flat dict for tables/reports."""
        return {
            "method": self.method,
            "n_edges": self.route.n_edges if self.route else 0,
            "n_new_edges": self.route.n_new_edges if self.route else 0,
            "objective": round(self.objective, 6),
            "o_d": round(self.o_d, 3),
            "o_lambda": round(self.o_lambda, 6),
            "iterations": self.iterations,
            "runtime_s": round(self.runtime_s, 4),
            "evaluations": self.connectivity_evaluations,
        }
