"""Unit and behavior tests for the expansion engine (Algorithm 1)."""

import pytest

from repro.core.config import PlannerConfig
from repro.core.eta import ExpansionEngine
from repro.core.objective import PrecomputedStrategy
from repro.core.planner import run_method
from repro.core.precompute import precompute, rebind
from route_checks import assert_route_geometry


@pytest.fixture(scope="module")
def pre(small_dataset_module):
    cfg = PlannerConfig(k=12, max_iterations=250, seed_count=150)
    return precompute(small_dataset_module, cfg)


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.data.datasets import chicago_like

    return chicago_like("small")


def check_route_invariants(pre, result):
    """Invariants every planned route must satisfy, from stop geometry."""
    assert result.route is not None
    cfg = pre.config
    assert_route_geometry(pre.universe, result.route, cfg.k, cfg.max_turns, cfg.allow_loop)


class TestEtaPre:
    def test_finds_feasible_route(self, pre):
        result = run_method(pre, "eta-pre")
        check_route_invariants(pre, result)
        assert result.objective > 0
        assert result.method == "eta-pre"

    def test_search_score_matches_linear_sum(self, pre):
        result = run_method(pre, "eta-pre")
        strategy = PrecomputedStrategy(pre)
        assert result.search_score == pytest.approx(
            strategy.path_score(result.route.edge_indices)
        )

    def test_deterministic(self, pre):
        a = run_method(pre, "eta-pre")
        b = run_method(pre, "eta-pre")
        assert a.route.edge_indices == b.route.edge_indices
        assert a.search_score == pytest.approx(b.search_score)

    def test_trace_monotone(self, pre):
        result = run_method(pre, "eta-pre")
        values = [v for _, v in result.trace]
        assert values == sorted(values)

    def test_few_connectivity_evaluations(self, pre):
        """The whole point of ETA-Pre: O(1) estimates (final report only)."""
        result = run_method(pre, "eta-pre")
        assert result.connectivity_evaluations <= 2

    @pytest.mark.parametrize(
        "max_iterations, record_every, recorded",
        [(30, 10, [10, 20, 30]), (5, 5, [5]), (25, 10, [10, 20, 25])],
    )
    def test_trace_ends_once_at_the_last_iteration(
        self, pre, max_iterations, record_every, recorded
    ):
        """A run ending on a recording iteration does not repeat it."""
        capped = rebind(pre, pre.config.variant(
            max_iterations=max_iterations, record_every=record_every))
        result = run_method(capped, "eta-pre")
        assert result.iterations == max_iterations
        assert [it for it, _ in result.trace] == recorded
        assert result.trace[-1][1] == result.search_score


@pytest.mark.slow
class TestEtaOnline:
    """Benchmark-driving online-ETA runs (~10s total): tier-2 only."""

    def test_finds_feasible_route(self, pre):
        result = run_method(pre, "eta")
        check_route_invariants(pre, result)
        assert result.method == "eta"

    def test_many_connectivity_evaluations(self, pre):
        """ETA's Bottleneck 1: one estimate per candidate evaluation."""
        result = run_method(pre, "eta")
        assert result.connectivity_evaluations > result.iterations

    def test_slower_than_pre(self, pre):
        online = run_method(pre, "eta")
        fast = run_method(pre, "eta-pre")
        assert online.runtime_s > fast.runtime_s

    def test_comparable_objective_to_pre(self, pre):
        """Table 6: ETA and ETA-Pre reach similar objective values."""
        online = run_method(pre, "eta")
        fast = run_method(pre, "eta-pre")
        assert fast.objective >= 0.5 * online.objective


class TestVariants:
    def test_eta_all_runs(self, small_dataset_module):
        cfg = PlannerConfig(k=8, max_iterations=60, seed_count=40)
        pre_small = precompute(small_dataset_module, cfg)
        result = run_method(pre_small, "eta-all")
        assert result.method == "eta-all"
        assert result.route is not None

    def test_iteration_cap_respected(self, pre):
        capped = rebind(pre, pre.config.variant(max_iterations=5))
        result = run_method(capped, "eta-pre")
        assert result.iterations <= 5

    def test_no_domination_still_correct(self, pre):
        no_dt = rebind(pre, pre.config.variant(use_domination=False))
        result = ExpansionEngine(no_dt, PrecomputedStrategy(no_dt)).run()
        check_route_invariants(no_dt, result)
        assert result.pruned_by_domination == 0

    def test_all_neighbors_expansion(self, pre):
        an = rebind(pre, pre.config.variant(expansion="all", max_iterations=120))
        result = ExpansionEngine(an, PrecomputedStrategy(an)).run()
        check_route_invariants(an, result)
        # AN pushes far more candidates per iteration.
        assert result.queue_pushes >= result.iterations

    def test_new_edges_only(self, pre):
        vk = rebind(pre, pre.config.variant(new_edges_only=True, w=1.0))
        result = ExpansionEngine(vk, PrecomputedStrategy(vk)).run()
        assert result.route is not None
        assert result.route.n_new_edges == result.route.n_edges

    def test_turn_budget_zero(self, pre):
        strict = rebind(pre, pre.config.variant(max_turns=0))
        result = ExpansionEngine(strict, PrecomputedStrategy(strict)).run()
        if result.route is not None:
            assert result.route.turns == 0

    def test_k_one(self, pre):
        k1 = rebind(pre, pre.config.variant(k=1))
        result = ExpansionEngine(k1, PrecomputedStrategy(k1)).run()
        assert result.route.n_edges == 1
        # Best single edge by L_e.
        best_idx = k1.L_e.edge_at(1)
        assert result.route.edge_indices == (best_idx,)

    def test_fifo_discipline_valid_but_slower_to_converge(self, pre):
        """The classical breadth-first framework (ETA-ALL's queue)."""
        budget = 150
        fifo = rebind(pre, pre.config.variant(
            queue_discipline="fifo", seed_count=None, max_iterations=budget))
        bound = rebind(pre, pre.config.variant(max_iterations=budget))
        res_fifo = ExpansionEngine(fifo, PrecomputedStrategy(fifo)).run()
        res_bound = ExpansionEngine(bound, PrecomputedStrategy(bound)).run()
        check_route_invariants(fifo, res_fifo)
        # Bound-ordered scanning reaches at least the FIFO score under
        # the same iteration budget.
        assert res_bound.search_score >= res_fifo.search_score - 1e-9

    def test_empty_seed_set_returns_no_route(self, small_dataset_module):
        """new_edges_only with a tau too small for any candidate edge."""
        from repro.core.precompute import precompute

        cfg = PlannerConfig(
            k=5, max_iterations=50, tau_km=1e-5, new_edges_only=True
        )
        pre_empty = precompute(small_dataset_module, cfg)
        result = ExpansionEngine(pre_empty, PrecomputedStrategy(pre_empty)).run()
        assert result.route is None
        assert not result.found
