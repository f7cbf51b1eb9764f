"""The probe-free gain kernel against dense ``eigvalsh``.

``repro.spectral.gains.block_lanczos_gains`` prices every connectivity
gain of the default ``increment_mode="exact"``. The oracle is
:func:`natural_connectivity_exact` of ``G_r`` and of ``G_r`` plus each
set, the paper's "Eigen NumPy" reference. Contract:

* every gain is within ``REL_BOUND`` relative of the oracle, on every
  candidate edge of the canned cities (``tiny`` and ``small`` here,
  ``bench`` under ``-m slow``), on a sample of ``paper`` queens' (653
  stops, above the dense cutoff; ``-m slow``) and on whole eta-pre
  routes;
* gains order edges as the oracle does, except where the oracle's own
  values lie within the bound of each other (exact ties occur on the
  tiny cities);
* a set's gain is bitwise the same priced alone, in its batch or in a
  shuffled batch, so one ``connectivity_gains`` call over many sets and
  one call per set agree bitwise;
* eta-pre plans the routes it plans with ``Delta(e)`` from dense
  ``eigvalsh``;
* nothing reads the estimator's probes: eta-pre plans identically with
  the probe block drawn from seeds 0-4.
"""

import functools
import importlib
import itertools
import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import PlannerConfig
from repro.core.planner import run_method
from repro.core.precompute import precompute, rebind
from repro.data.datasets import CITY_NAMES, canned_city
from repro.network.adjacency import AdjacencyBuilder
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
)
from repro.spectral.gains import GAIN_STEPS, block_lanczos_gains
from repro.utils.errors import ValidationError

precompute_module = importlib.import_module("repro.core.precompute")

REL_BOUND = 1e-8
"""Stated relative-error bound of a gain against dense ``eigvalsh``. The
largest error measured over every candidate edge of the tiny, small and
bench cities is 1.8e-10 (bench nyc)."""

PROFILES = [(city, profile) for profile in ("tiny", "small") for city in CITY_NAMES]
BENCH = [
    pytest.param(city, "bench", marks=pytest.mark.slow) for city in CITY_NAMES
]

_pre_cache: dict = {}


def _pre(city, profile):
    if (city, profile) not in _pre_cache:
        _pre_cache[city, profile] = precompute(canned_city(city, profile), PlannerConfig())
    return _pre_cache[city, profile]


def _truth(builder, pair_sets):
    base = natural_connectivity_exact(builder.base())
    return np.array([
        natural_connectivity_exact(builder.extended(pairs)) - base
        for pairs in pair_sets
    ])


def _trace_base(builder):
    return float(np.exp(natural_connectivity_exact(builder.base()))) * builder.n


def assert_within_bound(got, truth):
    rel = np.abs(got - truth) / np.abs(truth)
    assert rel.max() <= REL_BOUND, f"max relative error {rel.max():.3g}"


def assert_same_order(got, truth):
    """Every pair of gains the oracle separates by more than the bound
    allows is ordered the same way."""
    slack = 2 * REL_BOUND * np.maximum.outer(np.abs(truth), np.abs(truth))
    apart = np.abs(np.subtract.outer(truth, truth)) > slack
    agree = np.sign(np.subtract.outer(got, got)) == np.sign(
        np.subtract.outer(truth, truth)
    )
    assert agree[apart].all()


@functools.lru_cache(maxsize=None)
def _edge_gains(city, profile):
    pre = _pre(city, profile)
    new = [e.index for e in pre.universe.edges if e.is_new]
    pairs = [[pre.universe.edge(i).pair] for i in new]
    return pre, pre.universe.delta[new], _truth(pre.builder, pairs)


class TestCandidateEdges:
    @pytest.mark.parametrize("city, profile", PROFILES + BENCH)
    def test_every_candidate_edge_within_bound(self, city, profile):
        _, got, truth = _edge_gains(city, profile)
        assert_within_bound(got, truth)
        assert_same_order(got, truth)

    @pytest.mark.parametrize("city", CITY_NAMES)
    def test_lambda_base_is_the_dense_value(self, city):
        pre = _pre(city, "tiny")
        exact = natural_connectivity_exact(pre.builder.base())
        assert pre.lambda_base == pytest.approx(exact, rel=1e-13)

    @pytest.mark.slow
    def test_paper_queens_sample_within_bound(self):
        # Above the dense cutoff every gain is priced against the
        # quadrature lambda_base, so an estimated one would scale them all.
        pre = precompute(canned_city("queens", "paper"), PlannerConfig())
        new = [e.index for e in pre.universe.edges if e.is_new]
        sample = sorted(random.Random(0).sample(new, 40))
        truth = _truth(pre.builder, [[pre.universe.edge(i).pair] for i in sample])
        assert_within_bound(pre.universe.delta[sample], truth)


class TestDenseRoutes:
    @pytest.mark.parametrize("city, profile", PROFILES)
    def test_eta_pre_routes_equal_the_dense_delta_routes(self, city, profile):
        """eta-pre plans with the kernel's ``Delta(e)`` as with ``Delta(e)``
        from dense ``eigvalsh``, at k = 30 and k = 10."""
        pre, _, truth = _edge_gains(city, profile)
        dense = precompute(canned_city(city, profile), PlannerConfig())
        deltas = np.zeros(len(dense.universe))
        deltas[dense.universe.is_new] = np.maximum(truth, 0.0)
        dense.universe.set_deltas(deltas)
        for k in (30, 10):
            got = run_method(rebind(pre, pre.config.variant(k=k)), "eta-pre")
            want = run_method(rebind(dense, dense.config.variant(k=k)), "eta-pre")
            route, dense_route = got.route.edge_indices, want.route.edge_indices
            assert min(route, route[::-1]) == min(dense_route, dense_route[::-1])
            assert got.objective == pytest.approx(want.objective, rel=1e-9)


def _route_sets(city, profile, ks=(10, 30)):
    pre = _pre(city, profile)
    sets = []
    for k in ks:
        result = run_method(rebind(pre, pre.config.variant(k=k)), "eta-pre")
        sets.append(pre.builder.novel_pairs(result.route.new_pairs))
    return pre, sets


class TestRoutes:
    @pytest.mark.parametrize("city", ["chicago", "nyc"])
    def test_eta_pre_routes_within_bound(self, city):
        pre, sets = _route_sets(city, "small")
        assert min(len(s) for s in sets) >= 2
        got = pre.connectivity_gains(sets)
        assert_within_bound(got, _truth(pre.builder, sets))

    @pytest.mark.slow
    @pytest.mark.parametrize("city", ["chicago", "nyc"])
    def test_bench_eta_pre_routes_within_bound(self, city):
        pre, sets = _route_sets(city, "bench")
        got = pre.connectivity_gains(sets)
        assert_within_bound(got, _truth(pre.builder, sets))


def _path_graph(n):
    return AdjacencyBuilder(n, [(i, i + 1) for i in range(n - 1)])


class TestDeflation:
    @pytest.mark.parametrize("city", ["bronx", "brooklyn", "staten_island", "queens"])
    def test_blocks_wider_than_the_graph(self, city):
        """``b * steps > n``: the Krylov space runs out before the steps do."""
        pre, got, truth = _edge_gains(city, "tiny")
        assert 2 * GAIN_STEPS > pre.builder.n
        assert_within_bound(got, truth)

    def test_route_block_exhausting_the_space_in_two_steps(self):
        # Stops 0, 2, 4, 6 of a path on 8 stops: A P reaches the other
        # four, so the third block is rounding noise and must be dropped.
        builder = _path_graph(8)
        pairs = [(0, 2), (2, 4), (4, 6)]
        want = _truth(builder, [pairs])
        trace_base = _trace_base(builder)
        for steps in (2, 3, GAIN_STEPS, 12):
            got = block_lanczos_gains(builder.base(), [pairs], trace_base, steps)
            assert got[0] == pytest.approx(want[0], rel=1e-12), steps

    def test_whole_graph_block(self):
        """A set touching every stop is exact after one step."""
        builder = _path_graph(6)
        pairs = [(0, 2), (1, 3), (0, 4), (3, 5)]
        got = block_lanczos_gains(builder.base(), [pairs], _trace_base(builder))
        assert got[0] == pytest.approx(_truth(builder, [pairs])[0], rel=1e-12)

    def test_edgeless_base(self):
        builder = AdjacencyBuilder(4, [])
        pairs = [(0, 1), (2, 3)]
        got = block_lanczos_gains(builder.base(), [pairs], _trace_base(builder))
        assert got[0] == pytest.approx(_truth(builder, [pairs])[0], rel=1e-12)


def _mixed_sets(seed=0, count=40):
    """Sets of one to eight candidate pairs of small nyc, several widths."""
    pre = _pre("nyc", "small")
    new = [e.pair for e in pre.universe.edges if e.is_new]
    rng = random.Random(seed)
    sets = [
        tuple(pre.builder.novel_pairs(rng.sample(new, rng.randint(1, 8))))
        for _ in range(count)
    ]
    return pre, sets


class TestBatchInvariance:
    def test_alone_in_batch_and_shuffled_are_bitwise_equal(self):
        pre, sets = _mixed_sets()
        A, trace_base = pre.builder.base(), _trace_base(pre.builder)
        assert len({len(set(itertools.chain(*s))) for s in sets}) >= 4
        batch = block_lanczos_gains(A, sets, trace_base)
        alone = np.concatenate(
            [block_lanczos_gains(A, [s], trace_base) for s in sets]
        )
        order = list(range(len(sets)))
        random.Random(1).shuffle(order)
        shuffled = np.empty(len(sets))
        shuffled[order] = block_lanczos_gains(A, [sets[i] for i in order], trace_base)
        assert alone.tobytes() == batch.tobytes()
        assert shuffled.tobytes() == batch.tobytes()

    def test_chunking_is_bitwise_invariant(self):
        pre, sets = _mixed_sets(seed=2)
        A, trace_base = pre.builder.base(), _trace_base(pre.builder)
        whole = block_lanczos_gains(A, sets, trace_base)
        for max_columns in (1, 5, 17):
            chunked = block_lanczos_gains(A, sets, trace_base, max_columns=max_columns)
            assert chunked.tobytes() == whole.tobytes()

    def test_batched_equals_sequential_bitwise(self):
        pre, sets = _mixed_sets(seed=3)
        batched = pre.connectivity_gains(sets)
        sequential = np.concatenate([pre.connectivity_gains([s]) for s in sets])
        assert batched.tobytes() == sequential.tobytes()

    def test_precomputed_deltas_equal_each_edge_priced_alone(self):
        pre = precompute(canned_city("chicago", "small"), PlannerConfig())
        uni = pre.universe
        new = np.flatnonzero(uni.is_new)
        alone = [pre.connectivity_gains([[uni.edge(int(i)).pair]])[0] for i in new]
        assert uni.delta[new].tobytes() == np.array(alone).tobytes()


class TestKernelInputs:
    def test_empty_set_gains_zero(self):
        builder = _path_graph(5)
        got = block_lanczos_gains(builder.base(), [[], [(0, 2)], []], 10.0)
        assert got[0] == got[2] == 0.0 and got[1] > 0

    def test_duplicates_and_self_loops_are_skipped(self):
        builder = _path_graph(6)
        tb = _trace_base(builder)
        plain = block_lanczos_gains(builder.base(), [[(0, 2), (3, 5)]], tb)
        noisy = block_lanczos_gains(
            builder.base(), [[(0, 2), (2, 0), (4, 4), (3, 5)]], tb
        )
        assert noisy.tobytes() == plain.tobytes()

    def test_validation(self):
        A = sp.csr_matrix(_path_graph(4).base())
        with pytest.raises(ValidationError):
            block_lanczos_gains(A, [[(0, 2)]], 10.0, steps=0)
        with pytest.raises(ValidationError):
            block_lanczos_gains(A, [[(0, 2)]], 10.0, max_columns=0)
        with pytest.raises(ValidationError):
            block_lanczos_gains(A, [[(0, 2)]], 0.0)


class TestSeedIndependence:
    @pytest.mark.parametrize("city, profile", PROFILES)
    def test_eta_pre_plan_is_the_same_for_every_seed(
        self, city, profile, monkeypatch
    ):
        # The hutchinson mode draws its probe block with seed 0. The
        # exact mode draws none, so a block drawn from any other seed
        # plans the same route.
        ds = canned_city(city, profile)
        plans = []
        for seed in range(5):
            monkeypatch.setattr(
                precompute_module, "NaturalConnectivityEstimator",
                functools.partial(NaturalConnectivityEstimator, seed=seed),
            )
            result = run_method(precompute(ds, PlannerConfig()), "eta-pre")
            plans.append((
                result.route.edge_indices, result.o_lambda, result.objective,
            ))
        assert plans == [plans[0]] * 5
