"""Tests for the CTBusPlanner facade and multi-route planning."""

import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.planner import CONSTRAINED_METHODS, METHODS, CTBusPlanner, run_method
from repro.core.precompute import rebind
from repro.utils.errors import PlanningError


@pytest.fixture(scope="module")
def planner():
    from repro.data.datasets import chicago_like

    ds = chicago_like("small")
    return CTBusPlanner(ds, PlannerConfig(k=10, max_iterations=200, seed_count=120))


class TestFacade:
    def test_methods_listed(self):
        assert set(METHODS) == {"eta-pre", "eta", "eta-all", "vk-tsp"}
        assert CONSTRAINED_METHODS == ("eta-pre", "eta")

    def test_unknown_method_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan("annealing")

    def test_precomputation_cached(self, planner):
        assert planner.precomputation is planner.precomputation

    def test_eta_pre_via_facade(self, planner):
        result = planner.plan("eta-pre")
        assert result.route is not None
        assert result.summary()["method"] == "eta-pre"

    def test_vk_tsp_new_edges_only_and_renormalized(self, planner):
        result = planner.plan("vk-tsp")
        assert result.route.n_new_edges == result.route.n_edges
        # Objective is re-normalized with the caller's w (0.5 here).
        want = 0.5 * result.o_d_normalized + 0.5 * result.o_lambda_normalized
        assert result.objective == pytest.approx(want)

    def test_default_config(self):
        from repro.data.datasets import chicago_like

        p = CTBusPlanner(chicago_like("tiny"))
        assert p.config.k == 30  # paper default


class TestRunMethod:
    """run_method is the one door into the search, constrained or not."""

    def test_constrained_run_is_the_facade_replan(self, planner):
        constraints = PlanningConstraints(anchor_stop=0)
        direct = run_method(planner.precomputation, "eta-pre", constraints)
        replan = planner.plan_constrained(constraints)
        assert direct.method == "eta-pre+constraints"
        assert direct.route == replan.route
        assert direct.objective == replan.objective

    @pytest.mark.parametrize("method", ["eta-all", "vk-tsp"])
    def test_rows_with_overrides_take_no_constraints(self, planner, method):
        with pytest.raises(PlanningError, match="constrained planning"):
            run_method(planner.precomputation, method, PlanningConstraints())

    def test_rows_without_overrides_do_not_rebind(self, planner, monkeypatch):
        pre = rebind(
            planner.precomputation,
            planner.precomputation.config.variant(max_iterations=5),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("rebind called")

        monkeypatch.setattr("repro.core.planner.rebind", refuse)
        for method in CONSTRAINED_METHODS:
            assert run_method(pre, method).method == method


class TestMultiRoute:
    def test_plans_distinct_routes(self, planner):
        results = planner.plan_multiple(2, method="eta-pre")
        assert len(results) == 2
        first, second = results
        assert first.route.edge_indices != second.route.edge_indices

    def test_advanced_planner_zeroes_covered_demand(self, planner):
        first = planner.plan("eta-pre")
        advanced = planner._advanced(first.route, zero_covered_demand=True)
        pre = planner.precomputation
        for idx in first.route.edge_indices:
            for road_edge in pre.universe.edge(idx).road_path:
                assert advanced.dataset.road.edge_demand(road_edge) == 0.0
        # And the new transit network carries the planned route.
        assert advanced.dataset.transit.n_routes == (
            planner.dataset.transit.n_routes + 1
        )

    def test_bad_count(self, planner):
        with pytest.raises(PlanningError):
            planner.plan_multiple(0)

    def test_advanced_dataset_contains_new_route(self, planner):
        results = planner.plan_multiple(2, method="eta-pre")
        assert len(results) == 2
        # The original dataset is untouched.
        assert all(
            not r.name.startswith("planned") for r in planner.dataset.transit.routes
        )

    def test_advanced_regression_contract(self, planner):
        """Pin the _advanced contract behind plan_multiple (regression).

        After one advancement: every covered road edge's demand is zero,
        every *uncovered* road edge keeps its demand bit-exactly, and
        the transit network gained exactly one (planned) route.
        """
        first = planner.plan("eta-pre")
        pre = planner.precomputation
        advanced = planner._advanced(first.route, zero_covered_demand=True)

        covered = {
            road_edge
            for idx in first.route.edge_indices
            for road_edge in pre.universe.edge(idx).road_path
        }
        assert covered  # the route must cover real road geometry
        before, after = planner.dataset.road, advanced.dataset.road
        for eid in range(before.n_edges):
            if eid in covered:
                assert after.edge_demand(eid) == 0.0
            else:
                assert after.edge_demand(eid) == before.edge_demand(eid)

        old_t, new_t = planner.dataset.transit, advanced.dataset.transit
        assert new_t.n_routes == old_t.n_routes + 1
        planned = [r for r in new_t.routes if r.name.startswith("planned-")]
        assert len(planned) == 1
        assert planned[0].stops == first.route.stops

    def test_advanced_keeps_demand_without_zeroing(self, planner):
        first = planner.plan("eta-pre")
        advanced = planner._advanced(first.route, zero_covered_demand=False)
        before, after = planner.dataset.road, advanced.dataset.road
        for eid in range(before.n_edges):
            assert after.edge_demand(eid) == before.edge_demand(eid)
        assert advanced.dataset.transit.n_routes == (
            planner.dataset.transit.n_routes + 1
        )


class TestConstrainedValidation:
    def test_plan_constrained_rejects_none(self, planner):
        with pytest.raises(PlanningError, match="PlanningConstraints"):
            planner.plan_constrained(None)

    def test_plan_constrained_rejects_mapping(self, planner):
        with pytest.raises(PlanningError, match="PlanningConstraints"):
            planner.plan_constrained({"anchor_stop": 0})

    def test_plan_constrained_rejects_unknown_method(self, planner):
        from repro.core.constraints import PlanningConstraints

        with pytest.raises(PlanningError, match="constrained planning"):
            planner.plan_constrained(
                PlanningConstraints(anchor_stop=0), method="vk-tsp"
            )

    def test_plan_constrained_accepts_real_constraints(self, planner):
        from repro.core.constraints import PlanningConstraints

        result = planner.plan_constrained(PlanningConstraints(anchor_stop=0))
        assert result.method == "eta-pre+constraints"
