"""Tests for constraint-aware interactive replanning."""

import pytest

from repro.core.constraints import PlanningConstraints
from repro.core.eta import ExpansionEngine
from repro.core.objective import PrecomputedStrategy
from repro.core.planner import CTBusPlanner
from repro.core.config import PlannerConfig
from repro.utils.errors import PlanningError, ValidationError
from route_checks import assert_route_geometry


@pytest.fixture(scope="module")
def planner():
    from repro.data.datasets import chicago_like

    return CTBusPlanner(
        chicago_like("small"),
        PlannerConfig(k=10, max_iterations=400, seed_count=150),
    )


def check_geometry(planner, result):
    """The replanned route is feasible by stop geometry, not only by its counters."""
    cfg = planner.config
    assert_route_geometry(
        planner.precomputation.universe, result.route, cfg.k, cfg.max_turns, cfg.allow_loop
    )


class TestConstraintObject:
    def test_anchor_cannot_be_forbidden(self):
        with pytest.raises(ValidationError):
            PlanningConstraints(anchor_stop=1, forbid_stops={1})

    def test_out_of_range_rejected(self, planner):
        pre = planner.precomputation
        with pytest.raises(ValidationError):
            ExpansionEngine(
                pre, PrecomputedStrategy(pre),
                constraints=PlanningConstraints(anchor_stop=10_000),
            )
        with pytest.raises(ValidationError):
            ExpansionEngine(
                pre, PrecomputedStrategy(pre),
                constraints=PlanningConstraints(forbid_edges={10_000_000}),
            )

    def test_allows_edge(self, planner):
        pre = planner.precomputation
        e0 = pre.universe.edge(0)
        c = PlanningConstraints(forbid_stops={e0.u})
        assert not c.allows_edge(pre.universe, 0)
        c2 = PlanningConstraints(forbid_edges={0})
        assert not c2.allows_edge(pre.universe, 0)


class TestConstrainedPlanning:
    def test_anchor_stop_on_route(self, planner):
        # Anchor at the busiest stop of the unconstrained route's middle.
        free = planner.plan("eta-pre")
        anchor = free.route.stops[len(free.route.stops) // 2]
        result = planner.plan_constrained(PlanningConstraints(anchor_stop=anchor))
        assert result.route is not None
        check_geometry(planner, result)
        assert anchor in result.route.stops

    def test_anchor_elsewhere_changes_route(self, planner):
        free = planner.plan("eta-pre")
        # Pick an anchor far from the free route.
        pre = planner.precomputation
        outside = [
            s for s in range(pre.universe.n_stops) if s not in free.route.stops
        ]
        anchored = None
        for candidate_anchor in outside:
            result = planner.plan_constrained(
                PlanningConstraints(anchor_stop=candidate_anchor)
            )
            if result.route is not None:
                anchored = (candidate_anchor, result)
                break
        assert anchored is not None
        anchor, result = anchored
        check_geometry(planner, result)
        assert anchor in result.route.stops

    def test_forbid_stops_respected(self, planner):
        free = planner.plan("eta-pre")
        banned = {free.route.stops[0], free.route.stops[-1]}
        result = planner.plan_constrained(PlanningConstraints(forbid_stops=banned))
        if result.route is not None:
            check_geometry(planner, result)
            assert not banned & set(result.route.stops)

    def test_forbid_edges_respected(self, planner):
        free = planner.plan("eta-pre")
        banned = frozenset(free.route.edge_indices[:2])
        result = planner.plan_constrained(PlanningConstraints(forbid_edges=banned))
        if result.route is not None:
            check_geometry(planner, result)
            assert not banned & set(result.route.edge_indices)

    def test_constrained_score_never_beats_free(self, planner):
        """Hard constraints can only shrink the search space."""
        free = planner.plan("eta-pre")
        banned = frozenset(free.route.edge_indices)
        result = planner.plan_constrained(PlanningConstraints(forbid_edges=banned))
        check_geometry(planner, result)
        assert result.search_score <= free.search_score + 1e-9

    def test_replan_reuses_precomputation(self, planner):
        pre_before = planner.precomputation
        planner.plan_constrained(PlanningConstraints(anchor_stop=0))
        assert planner.precomputation is pre_before

    def test_unknown_method_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan_constrained(PlanningConstraints(), method="eta-all")

    def test_method_tag(self, planner):
        result = planner.plan_constrained(PlanningConstraints(anchor_stop=0))
        assert result.method == "eta-pre+constraints"
