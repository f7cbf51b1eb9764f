"""Unit and property tests for the batched candidate-evaluation kernel.

Covers the ``spectral/batch.py`` primitive itself, its quadrature
(trace) finish against the single-vector eigh quadrature, the
estimator's batch API (including ``evaluations`` accounting), the
strategy-level ``extension_scores`` and the per-run memo of gains behind
it, and the ``hutchinson_trace`` / ``hutchinson_trace_samples`` error
type. The end-to-end planning contract lives in ``test_batch_oracle.py``.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import PlannerConfig
from repro.core.eta import ExpansionEngine
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.precompute import precompute
from repro.data.datasets import canned_city
from repro.network.adjacency import AdjacencyBuilder
from repro.spectral.batch import (
    _normalize_groups,
    _stacked_operator,
    batched_expm_traces,
)
from repro.spectral.connectivity import NaturalConnectivityEstimator
from repro.spectral.hutchinson import (
    hutchinson_trace,
    hutchinson_trace_samples,
    sample_probes,
)
from repro.spectral.lanczos import lanczos_expm_quadrature
from repro.utils.errors import GraphError, ValidationError


def random_adjacency(n: int, p: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(float)
    return sp.csr_matrix(dense)


def novel_groups(A: sp.csr_matrix, sizes, seed: int):
    """Random edge groups guaranteed absent from ``A`` (no self-loops)."""
    rng = np.random.default_rng(seed)
    existing = {tuple(sorted(map(int, p))) for p in zip(*A.nonzero())}
    n = A.shape[0]
    groups = []
    for size in sizes:
        group = []
        while len(group) < size:
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v and tuple(sorted((u, v))) not in existing:
                group.append((u, v))
        groups.append(group)
    return groups


def novel_set(pre, edge_ids):
    """The canonical novel-pair set a path of universe edges adds."""
    return tuple(pre.builder.novel_pairs(pre.universe.new_pairs(edge_ids)))


class CountingMatrix:
    """Sparse-matrix wrapper counting ``@`` products."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape
        self.matmuls = 0

    def __matmul__(self, other):
        self.matmuls += 1
        return self.A @ other


def extended(A: sp.csr_matrix, pairs) -> sp.csr_matrix:
    out = A.tolil(copy=True)
    for u, v in pairs:
        out[u, v] = 1.0
        out[v, u] = 1.0
    return out.tocsr()


class TestBatchedTraces:
    def test_matches_sequential_hutchinson(self):
        A = random_adjacency(50, 0.08, 0)
        probes = sample_probes(50, 10, seed=1)
        groups = novel_groups(A, [2, 0, 1, 3, 5], seed=2)
        batched = batched_expm_traces(A, probes, groups, steps=8)
        sequential = np.array([
            hutchinson_trace(extended(A, g), probes, lanczos_steps=8)
            for g in groups
        ])
        np.testing.assert_allclose(batched, sequential, atol=1e-9, rtol=1e-12)

    def test_empty_group_is_bitwise_base_estimate(self):
        A = random_adjacency(30, 0.1, 3)
        probes = sample_probes(30, 8, seed=4)
        traces = batched_expm_traces(A, probes, [[]], steps=6)
        assert traces[0] == hutchinson_trace(A, probes, lanczos_steps=6)

    def test_empty_batch_returns_empty_without_matmuls(self):
        A = CountingMatrix(random_adjacency(20, 0.1, 5))
        probes = sample_probes(20, 4, seed=6)
        traces = batched_expm_traces(A, probes, [], steps=5)
        assert traces.shape == (0,)
        assert A.matmuls == 0

    def test_permutation_invariance_bitwise(self):
        A = random_adjacency(40, 0.1, 7)
        probes = sample_probes(40, 6, seed=8)
        groups = novel_groups(A, [1, 2, 3, 0, 2, 4], seed=9)
        base = batched_expm_traces(A, probes, groups, steps=6)
        perm = np.random.default_rng(10).permutation(len(groups))
        shuffled = batched_expm_traces(
            A, probes, [groups[i] for i in perm], steps=6
        )
        assert np.array_equal(shuffled, base[perm])

    def test_chunking_is_bitwise_invariant(self):
        A = random_adjacency(40, 0.1, 11)
        probes = sample_probes(40, 6, seed=12)
        groups = novel_groups(A, [1, 2, 1, 3, 2], seed=13)
        full = batched_expm_traces(A, probes, groups, steps=6)
        chunked = batched_expm_traces(
            A, probes, groups, steps=6, max_columns=6
        )
        assert np.array_equal(full, chunked)

    def test_duplicate_and_self_loop_pairs_are_collapsed(self):
        A = random_adjacency(30, 0.1, 14)
        probes = sample_probes(30, 6, seed=15)
        [[(u, v)]] = novel_groups(A, [1], seed=16)
        messy = [[(u, v), (v, u), (u, u)]]
        clean = [[(u, v)]]
        assert np.array_equal(
            batched_expm_traces(A, probes, messy, steps=6),
            batched_expm_traces(A, probes, clean, steps=6),
        )

    def test_validation(self):
        A = random_adjacency(20, 0.1, 17)
        probes = sample_probes(20, 4, seed=18)
        with pytest.raises(ValidationError):
            batched_expm_traces(A, probes[:10], [[]], steps=5)
        with pytest.raises(ValidationError):
            batched_expm_traces(A, probes, [[]], steps=5, max_columns=0)
        with pytest.raises(GraphError):
            batched_expm_traces(A, probes, [[(0, 99)]], steps=5)

    def test_single_scatter_matches_per_group_updates_bitwise(self):
        # One np.add.at for every variant must add in the per-group,
        # u-rows-then-v-rows order, including on shared endpoints.
        A = random_adjacency(30, 0.1, 58)
        probes = sample_probes(30, 4, seed=59)
        hub = 0
        a, b, c = [v for v in range(1, 30) if A[hub, v] == 0][:3]
        star = [(hub, a), (hub, b), (c, hub)]  # hub is a u-row and a v-row
        groups = [star, [], *novel_groups(A, [2, 3], seed=60), star[::-1]]
        V, matmat = _stacked_operator(A, probes, groups)
        Q = np.random.default_rng(61).standard_normal(V.shape)
        want = A @ Q
        for i, (us, vs) in enumerate(_normalize_groups(groups, 30)):
            block = want[:, i * 4 : (i + 1) * 4]
            np.add.at(block, us, Q[vs, i * 4 : (i + 1) * 4])
            np.add.at(block, vs, Q[us, i * 4 : (i + 1) * 4])
        assert np.array_equal(matmat(Q), want)


class TestBatchedQuadratureFinish:
    """The trace finish ``||v||^2 (e^T)_00`` against the eigh reference."""

    def test_matches_single_vector_quadrature(self):
        A = random_adjacency(50, 0.08, 50)
        probes = sample_probes(50, 10, seed=51)
        groups = novel_groups(A, [2, 0, 1, 3], seed=52)
        traces = batched_expm_traces(A, probes, groups, steps=8)
        single = [
            np.mean([
                lanczos_expm_quadrature(extended(A, g), probes[:, j], steps=8)
                for j in range(probes.shape[1])
            ])
            for g in groups
        ]
        np.testing.assert_allclose(traces, single, rtol=1e-12, atol=0.0)

    def test_zero_probe_column_adds_nothing(self):
        A = random_adjacency(30, 0.1, 53)
        probes = sample_probes(30, 5, seed=54)
        probes[:, 3] = 0.0
        groups = [[], *novel_groups(A, [1, 2], seed=55)]
        with_zero = batched_expm_traces(A, probes, groups, steps=8)
        without = batched_expm_traces(A, probes[:, [0, 1, 2, 4]], groups, steps=8)
        np.testing.assert_allclose(with_zero, without * 4 / 5, rtol=1e-14, atol=0.0)

    def test_early_breakdown_probe_freezes(self):
        # An eigenvector probe breaks down after one step; its quadratic
        # form is ||v||^2 e^lambda and the other probes run on untouched.
        A = random_adjacency(20, 0.2, 56)
        evals, evecs = np.linalg.eigh(A.toarray())
        probes = sample_probes(20, 4, seed=57)
        probes[:, 0] = 3.0 * evecs[:, -1]
        [trace] = batched_expm_traces(A, probes, [[]], steps=8)
        [rest] = batched_expm_traces(A, probes[:, 1:], [[]], steps=8)
        assert trace == pytest.approx((9.0 * np.exp(evals[-1]) + 3 * rest) / 4, rel=1e-12)


class TestEstimatorBatchAPI:
    def test_empty_batch_counts_nothing(self):
        A = random_adjacency(25, 0.12, 23)
        est = NaturalConnectivityEstimator(25, n_probes=6, lanczos_steps=5, seed=0)
        out = est.trace_exp_batch(A, [])
        assert out.shape == (0,)
        assert est.estimate_batch(A, []).shape == (0,)

    def test_batch_equals_sequential_accounting_and_values(self):
        A = random_adjacency(25, 0.12, 24)
        groups = novel_groups(A, [1, 3, 2], seed=25)
        batch_est = NaturalConnectivityEstimator(25, n_probes=6, lanczos_steps=5, seed=0)
        seq_est = NaturalConnectivityEstimator(25, n_probes=6, lanczos_steps=5, seed=0)
        batched = batch_est.estimate_batch(A, groups)
        sequential = np.array([
            seq_est.estimate(extended(A, g)) for g in groups
        ])
        np.testing.assert_allclose(batched, sequential, atol=1e-9, rtol=0.0)

    def test_shape_mismatch_raises(self):
        est = NaturalConnectivityEstimator(25, n_probes=6, lanczos_steps=5, seed=0)
        with pytest.raises(ValidationError):
            est.trace_exp_batch(random_adjacency(10, 0.2, 26), [[]])


class TestNovelPairs:
    def test_filters_base_members_self_loops_duplicates(self):
        builder = AdjacencyBuilder(6, [(0, 1), (1, 2)])
        pairs = [(1, 0), (2, 3), (3, 2), (4, 4), (3, 4), (2, 3)]
        assert builder.novel_pairs(pairs) == [(2, 3), (3, 4)]

    def test_out_of_range_raises(self):
        builder = AdjacencyBuilder(4, [(0, 1)])
        with pytest.raises(GraphError):
            builder.novel_pairs([(0, 9)])

    def test_agrees_with_extended(self):
        builder = AdjacencyBuilder(8, [(0, 1), (2, 3), (4, 5)])
        pairs = [(0, 1), (1, 2), (5, 5), (6, 7), (7, 6), (1, 2)]
        novel = builder.novel_pairs(pairs)
        via_novel = builder.extended(novel)
        via_raw = builder.extended(pairs)
        assert (via_novel != via_raw).nnz == 0


class _StrategyFixture:
    config_kwargs = dict(k=8, w=0.5, max_iterations=60, seed_count=40)

    @pytest.fixture(scope="class")
    def pre(self):
        config = PlannerConfig(**self.config_kwargs)
        return precompute(canned_city("chicago", "tiny"), config)


class TestOnlineExtensionScores(_StrategyFixture):
    def _candidate(self, pre, strategy):
        from repro.core.candidate import seed_candidate

        edge_index = pre.L_e.edge_at(1)
        cand = seed_candidate(pre.universe, edge_index)
        return cand.with_scores(strategy.seed_score(edge_index), 0.0, 0, 0.0)

    @staticmethod
    def _sequential_scores(pre, cand, edges):
        """The objective of each extension, each path priced in its own
        call rather than through a strategy's memo."""
        paths = [list(cand.edge_ids) + [e] for e in edges]
        o_d = np.array([pre.universe.demand[ids].sum() for ids in paths])
        o_l = np.concatenate(
            [pre.connectivity_gains([pre.universe.new_pairs(ids)]) for ids in paths]
        )
        return pre.objective(o_d, o_l)

    def test_batch_matches_sequential_loop(self, pre):
        strategy = OnlineStrategy(pre)
        cand = self._candidate(pre, strategy)
        terminal = cand.end_stop
        neighbors = list(pre.universe.incident(terminal))[:6]
        assert neighbors, "fixture produced an isolated terminal"
        batched = strategy.extension_scores(cand, neighbors)
        sequential = self._sequential_scores(pre, cand, neighbors)
        np.testing.assert_allclose(batched, sequential, atol=1e-9, rtol=0.0)

    def test_singleton_batch_matches_scalar(self, pre):
        strategy = OnlineStrategy(pre)
        cand = self._candidate(pre, strategy)
        [edge] = list(pre.universe.incident(cand.end_stop))[:1]
        score = strategy.extension_scores(cand, [edge])
        assert score.shape == (1,)
        [want] = self._sequential_scores(pre, cand, [edge])
        assert score[0] == pytest.approx(want, abs=1e-9)

    def test_empty_batch_skips_estimator(self, pre):
        strategy = OnlineStrategy(pre)
        cand = self._candidate(pre, strategy)
        with mock.patch.object(pre, "connectivity_gains") as gains:
            out = strategy.extension_scores(cand, [])
        assert out.shape == (0,)
        gains.assert_not_called()
        assert strategy.evaluations == 0

    def test_batch_charges_one_evaluation_per_scored_extension(self, pre):
        """A call charges one evaluation per distinct novel-pair set that
        this strategy has not priced yet."""
        strategy = OnlineStrategy(pre)
        cand = self._candidate(pre, strategy)
        neighbors = list(pre.universe.incident(cand.end_stop))[:4]
        paths = [list(cand.edge_ids) + [e] for e in neighbors]
        sets = {novel_set(pre, ids) for ids in paths} - {()}
        assert len(sets) >= 2, "fixture prices too few distinct sets"
        scores = strategy.extension_scores(cand, neighbors)
        assert strategy.evaluations == len(sets)
        # Every set is priced now: the round again and a re-score of one
        # of its paths are free, and bitwise what the first call gave.
        with mock.patch.object(pre, "connectivity_gains") as gains:
            again = strategy.extension_scores(cand, neighbors)
            assert strategy.path_score(paths[0]) == scores[0]
        gains.assert_not_called()
        assert again.tobytes() == scores.tobytes()
        assert strategy.evaluations == len(sets)


class _Recording(OnlineStrategy):
    """An online strategy that keeps every path it is asked to price."""

    def __init__(self, pre):
        super().__init__(pre)
        self.paths = []

    def connectivity(self, paths):
        self.paths.extend(tuple(ids) for ids in paths)
        return super().connectivity(paths)


class TestRunMemo:
    """One memo per run: a hit is bitwise what a fresh strategy computes."""

    @pytest.fixture(scope="class", params=["exact", "hutchinson"])
    def pre(self, request):
        config = PlannerConfig(
            **_StrategyFixture.config_kwargs, increment_mode=request.param,
        )
        return precompute(canned_city("nyc", "tiny"), config)

    def test_scores_after_a_run_equal_a_fresh_strategy(self, pre):
        strategy = _Recording(pre)
        ExpansionEngine(pre, strategy).run()
        paths = list(dict.fromkeys(strategy.paths))
        assert len(paths) > 20, "the run scored too few candidates"
        with mock.patch.object(pre, "connectivity_gains") as gains:
            remembered = [strategy.path_score(ids) for ids in paths]
        gains.assert_not_called()
        fresh = [OnlineStrategy(pre).path_score(ids) for ids in paths]
        assert np.array(remembered).tobytes() == np.array(fresh).tobytes()

    def test_run_counts_the_distinct_sets_it_priced(self, pre):
        strategy = _Recording(pre)
        result = ExpansionEngine(pre, strategy).run()
        sets = {novel_set(pre, ids) for ids in strategy.paths} - {()}
        assert len(sets) < len(strategy.paths)
        assert result.connectivity_evaluations == len(sets)


class TestPrecomputedExtensionScores(_StrategyFixture):
    def test_bitwise_equal_to_scalar_path(self, pre):
        strategy = PrecomputedStrategy(pre)
        from repro.core.candidate import seed_candidate

        edge_index = pre.L_e.edge_at(1)
        cand = seed_candidate(pre.universe, edge_index)
        cand = cand.with_scores(strategy.seed_score(edge_index), 0.0, 0, 0.0)
        indices = [pre.L_e.edge_at(r) for r in range(1, 6)]
        batched = strategy.extension_scores(cand, indices)
        scalar = np.array(
            [cand.score + strategy.seed_score(e) for e in indices]
        )
        assert np.array_equal(batched, scalar)
        assert strategy.extension_scores(cand, []).shape == (0,)


class TestHutchinsonErrorType:
    def test_shape_mismatch_raises_validation_error(self):
        A = random_adjacency(12, 0.2, 39)
        probes = sample_probes(8, 3, seed=40)
        with pytest.raises(ValidationError):
            hutchinson_trace(A, probes)
        with pytest.raises(ValidationError):
            hutchinson_trace_samples(A, probes)

    def test_validation_error_is_still_a_value_error(self):
        # Callers that caught the old bare ValueError keep working.
        A = random_adjacency(12, 0.2, 41)
        probes = sample_probes(8, 3, seed=42)
        with pytest.raises(ValueError):
            hutchinson_trace(A, probes)
