"""Unit tests for the objective evaluation strategies."""

import numpy as np
import pytest

from repro.core.candidate import seed_candidate
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.precompute import combine


@pytest.fixture(scope="module")
def strategies(small_pre):
    return OnlineStrategy(small_pre), PrecomputedStrategy(small_pre)


class TestCombine:
    def test_weighted_normalized_sum(self, small_pre):
        w = small_pre.config.w
        got = small_pre.objective(small_pre.d_max, small_pre.lambda_max)
        assert got == pytest.approx(w * 1.0 + (1 - w) * 1.0)

    def test_zero_components(self, small_pre):
        assert small_pre.objective(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("w", [0.3, 0.5, 0.7])
    def test_arrays_match_scalars_bitwise(self, small_pre, w):
        rng = np.random.default_rng(0)
        o_d = rng.uniform(0.0, small_pre.d_max, 64)
        o_l = rng.uniform(0.0, small_pre.lambda_max, 64)
        norms = (small_pre.d_max, small_pre.lambda_max)
        got = combine(w, o_d, o_l, *norms)
        want = [combine(w, float(d), float(l), *norms) for d, l in zip(o_d, o_l)]
        assert got.tobytes() == np.array(want).tobytes()


class TestOnlineStrategy:
    def test_seed_score_uses_precomputed_delta(self, small_pre, strategies):
        online, _ = strategies
        idx = int(small_pre.L_lambda.edge_at(1))
        want = small_pre.objective(
            float(small_pre.universe.demand[idx]),
            float(small_pre.universe.delta[idx]),
        )
        assert online.seed_score(idx) == pytest.approx(want)

    def test_path_score_counts_estimates(self, small_pre):
        # A fresh strategy: one that has priced this set charges nothing.
        online = OnlineStrategy(small_pre)
        new_edge = next(e.index for e in small_pre.universe.edges if e.is_new)
        online.path_score([new_edge])
        assert online.evaluations == 1
        online.path_score([new_edge])
        assert online.evaluations == 1

    def test_existing_only_path_needs_no_estimate(self, small_pre, strategies):
        online, _ = strategies
        existing = next(e.index for e in small_pre.universe.edges if not e.is_new)
        before = online.evaluations
        o_d, o_l = online.exact_components([existing])
        assert online.evaluations == before  # no new pairs
        assert o_l == 0.0
        assert o_d == pytest.approx(float(small_pre.universe.demand[existing]))

    def test_bound_to_upper_adds_path_bound(self, small_pre, strategies):
        online, _ = strategies
        got = online.bound_to_upper(100.0)
        want = small_pre.objective(100.0, small_pre.path_bound_increment)
        assert got == pytest.approx(want)

    def test_bound_list_is_L_d(self, small_pre, strategies):
        online, _ = strategies
        assert online.bound_list is small_pre.L_d


class TestPrecomputedStrategy:
    def test_path_score_is_linear(self, small_pre, strategies):
        _, pre_strat = strategies
        ids = [0, 1, 2]
        want = sum(small_pre.L_e.value(i) for i in ids)
        assert pre_strat.path_score(ids) == pytest.approx(want)

    def test_extension_score_incremental(self, small_pre, strategies):
        _, pre_strat = strategies
        cand = seed_candidate(small_pre.universe, 0)
        cand = cand.with_scores(pre_strat.seed_score(0), 0.0, 0, 0.0)
        [got] = pre_strat.extension_scores(cand, [1])
        assert got == pytest.approx(pre_strat.path_score([0, 1]))

    def test_bound_to_upper_identity(self, strategies):
        _, pre_strat = strategies
        assert pre_strat.bound_to_upper(0.37) == 0.37

    def test_empty_path(self, strategies):
        _, pre_strat = strategies
        assert pre_strat.path_score([]) == 0.0

    def test_bound_list_is_L_e(self, small_pre, strategies):
        _, pre_strat = strategies
        assert pre_strat.bound_list is small_pre.L_e

    def test_strategies_agree_on_exact_components(self, small_pre, strategies):
        online, pre_strat = strategies
        ids = [small_pre.L_e.edge_at(1), small_pre.L_e.edge_at(2)]
        od1, _ = online.exact_components(ids)
        od2, _ = pre_strat.exact_components(ids)
        assert od1 == pytest.approx(od2)
