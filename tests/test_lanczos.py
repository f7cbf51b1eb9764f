"""Unit tests for Lanczos tridiagonalization and the quadrature ``v^T e^A v``.

Reference values come from dense ``scipy.linalg.expm``, the eigh-based
single-vector functions and, where installed, 40-digit ``mpmath``.
"""

import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from repro.data.datasets import CITY_NAMES, canned_config
from repro.data.synth import (
    generate_hotspots,
    generate_road_network,
    generate_transit_network,
)
from repro.network.adjacency import AdjacencyBuilder
from repro.spectral.hutchinson import sample_probes
from repro.spectral.lanczos import (
    _TAYLOR_REACH,
    _block_lanczos,
    _expm_tridiagonal_e1,
    _expm_tridiagonal_e1_block,
    block_expm_quadrature,
    lanczos_expm_quadrature,
    lanczos_tridiagonalize,
)
from repro.utils.errors import ValidationError


def random_adjacency(n: int, p: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(float)
    return sp.csr_matrix(dense)


class TestTridiagonalize:
    def test_orthonormal_basis(self):
        A = random_adjacency(40, 0.1, 0)
        v = np.random.default_rng(1).standard_normal(40)
        Q, alpha, beta = lanczos_tridiagonalize(lambda x: A @ x, v, 12)
        gram = Q @ Q.T
        assert gram == pytest.approx(np.eye(len(alpha)), abs=1e-8)

    def test_t_matches_rayleigh_quotient(self):
        A = random_adjacency(30, 0.15, 2)
        v = np.random.default_rng(3).standard_normal(30)
        Q, alpha, beta = lanczos_tridiagonalize(lambda x: A @ x, v, 8)
        T = Q @ (A @ Q.T)
        assert np.diag(T) == pytest.approx(alpha, abs=1e-8)
        assert np.diag(T, 1) == pytest.approx(beta, abs=1e-8)

    def test_breakdown_on_invariant_subspace(self):
        # Start vector is an eigenvector: breakdown after 1 step.
        A = sp.csr_matrix(np.diag([3.0, 1.0, 1.0]))
        v = np.array([1.0, 0.0, 0.0])
        Q, alpha, beta = lanczos_tridiagonalize(lambda x: A @ x, v, 5)
        assert len(alpha) == 1
        assert alpha[0] == pytest.approx(3.0)

    def test_zero_vector(self):
        A = random_adjacency(5, 0.5, 0)
        Q, alpha, beta = lanczos_tridiagonalize(lambda x: A @ x, np.zeros(5), 3)
        assert alpha == pytest.approx([0.0])

    def test_bad_inputs(self):
        A = random_adjacency(5, 0.5, 0)
        with pytest.raises(ValidationError):
            lanczos_tridiagonalize(lambda x: A @ x, np.zeros((5, 2)), 3)
        with pytest.raises(ValidationError):
            lanczos_tridiagonalize(lambda x: A @ x, np.zeros(5), 0)


class TestQuadrature:
    def test_positive_and_matches_direct(self):
        A = random_adjacency(40, 0.1, 7)
        v = np.random.default_rng(8).standard_normal(40)
        quad = lanczos_expm_quadrature(A, v, steps=20)
        want = v @ (scipy.linalg.expm(A.toarray()) @ v)
        assert quad > 0
        assert quad == pytest.approx(want, rel=1e-6)

    def test_zero_vector(self):
        A = random_adjacency(6, 0.4, 2)
        assert lanczos_expm_quadrature(A, np.zeros(6)) == 0.0


# ----------------------------------------------------------------------
# The block kernel's dense half: eigh-free e^T e_1, quadrature finish
# ----------------------------------------------------------------------
U = 2.0**-53
ADVERSARIAL = ("wide", "negative-dominant", "decoupled", "t=1", "t=2")
SCIPY_EXPM_SLACK = 2.5e-13
"""``scipy.linalg.expm`` (scaling and squaring) is itself only accurate
to 1.1e-13 e^{mu + rho} on the adversarial spectra below (measured
against 50-digit mpmath), ~10x the stated bound; comparing with it must
allow for that. The mpmath test checks the bound itself."""


def tridiagonal(alpha, beta) -> np.ndarray:
    T = np.diag(np.asarray(alpha, dtype=float))
    for j, b in enumerate(beta):
        T[j, j + 1] = T[j + 1, j] = b
    return T


def gershgorin(alpha, beta) -> tuple[float, float]:
    """Centre and radius of the Gershgorin interval of ``T(alpha, beta)``."""
    reach = np.zeros(len(alpha))
    reach[1:] += beta
    reach[:-1] += beta
    lo, hi = (alpha - reach).min(), (alpha + reach).max()
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def stated_bound(alpha, beta) -> float:
    """The documented bound ``(6 rho + K + 2) u e^{mu + rho}`` per entry."""
    mu, rho = gershgorin(alpha, beta)
    terms = np.searchsorted(_TAYLOR_REACH, rho) + 1
    return (6 * rho + terms + 2) * U * np.exp(mu + rho)


@functools.lru_cache(maxsize=None)
def bench_adjacency(city: str) -> sp.csr_matrix:
    """The transit adjacency of a canned ``bench`` city (no trips built)."""
    cfg = canned_config(city, "bench")
    road = generate_road_network(cfg)
    transit = generate_transit_network(cfg, road, generate_hotspots(cfg, road))
    return AdjacencyBuilder(transit.n_stops, transit.edge_list()).base()


def bench_tridiagonals(city: str) -> tuple[np.ndarray, np.ndarray]:
    """``(alphas, betas)`` of the estimator's 50-probe, 10-step run."""
    A = bench_adjacency(city)
    probes = sample_probes(A.shape[0], 50, seed=0)
    _, alphas, betas, _ = _block_lanczos(lambda X: A @ X, probes, 10)
    return alphas, betas


def adversarial(kind: str, count: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """``(alphas, betas)`` of ``count`` hard tridiagonals, one per column."""
    rng = np.random.default_rng(ADVERSARIAL.index(kind))
    t = 10
    columns = []
    for _ in range(count):
        if kind == "wide":  # Gershgorin radius 7..13
            a, b = rng.uniform(-7, 7, t), rng.uniform(0, 3, t - 1)
        elif kind == "negative-dominant":  # e_1 ~ the most negative eigenvector
            a = np.r_[-8.0, rng.uniform(2, 5, t - 1)]
            b = np.r_[rng.uniform(0.01, 0.2), rng.uniform(0.5, 1.5, t - 2)]
        elif kind == "decoupled":  # broke down after step 5, live trailing block
            a, b = rng.uniform(-4, 4, t), rng.uniform(0.5, 2, t - 1)
            b[4] = 0.0
        elif kind == "t=1":
            a, b = rng.uniform(-9, 9, 1), np.zeros(0)
        else:  # "t=2"
            a, b = rng.uniform(-6, 6, 2), rng.uniform(0, 4, 1)
        columns.append((a, b))
    alphas = np.column_stack([a for a, _ in columns])
    betas = np.column_stack([b for _, b in columns])
    return alphas, betas


class TestExpmTridiagonalBlock:
    @pytest.mark.parametrize("city", CITY_NAMES)
    def test_matches_eigh_reference_on_bench_cities(self, city):
        alphas, betas = bench_tridiagonals(city)
        got = _expm_tridiagonal_e1_block(alphas, betas)
        half = _expm_tridiagonal_e1_block(0.5 * alphas, 0.5 * betas)
        for c in range(alphas.shape[1]):
            ref = _expm_tridiagonal_e1(alphas[:, c], betas[:, c])
            assert np.abs(got[:, c] - ref).max() <= 1e-13 * np.abs(ref).max()
            # The quadrature finish's half-step form of (e^T)_00.
            assert abs(half[:, c] @ half[:, c] - ref[0]) <= 1e-13 * ref[0]

    @pytest.mark.parametrize("kind", ADVERSARIAL)
    def test_adversarial_against_scipy_expm(self, kind):
        alphas, betas = adversarial(kind)
        got = _expm_tridiagonal_e1_block(alphas, betas)
        for c in range(alphas.shape[1]):
            a, b = alphas[:, c], betas[:, c]
            ref = scipy.linalg.expm(tridiagonal(a, b))[:, 0]
            mu, rho = gershgorin(a, b)
            tol = stated_bound(a, b) + SCIPY_EXPM_SLACK * np.exp(mu + rho)
            assert np.abs(got[:, c] - ref).max() <= tol

    @pytest.mark.parametrize("kind", ADVERSARIAL)
    def test_adversarial_within_stated_bound(self, kind):
        mpmath = pytest.importorskip("mpmath")
        alphas, betas = adversarial(kind)
        got = _expm_tridiagonal_e1_block(alphas, betas)
        for c in range(alphas.shape[1]):
            a, b = alphas[:, c], betas[:, c]
            with mpmath.workdps(40):
                E = mpmath.expm(mpmath.matrix(tridiagonal(a, b).tolist()))
                exact = np.array([float(E[i, 0]) for i in range(len(a))])
            assert np.abs(got[:, c] - exact).max() <= stated_bound(a, b)

    def test_decoupled_block_stays_exactly_zero(self):
        alphas, betas = adversarial("decoupled")
        got = _expm_tridiagonal_e1_block(alphas, betas)
        assert np.all(got[5:] == 0.0)

    def test_single_step_is_the_scalar_exponential(self):
        alphas, betas = adversarial("t=1")
        got = _expm_tridiagonal_e1_block(alphas, betas)
        assert np.array_equal(got[0], np.exp(alphas[0]))

    def test_columns_are_independent_bitwise(self):
        # Every column sums its own number of terms, so a block -- even
        # one holding a column wide enough for the eigh fallback --
        # gives each column exactly what it gives that column alone.
        parts = [adversarial(kind, 4) for kind in ADVERSARIAL[:3]]
        alphas = np.hstack([a for a, _ in parts] + [np.linspace(-30, 30, 10)[:, None]])
        betas = np.hstack([b for _, b in parts] + [np.ones((9, 1))])
        got = _expm_tridiagonal_e1_block(alphas, betas)
        for c in range(alphas.shape[1]):
            alone = _expm_tridiagonal_e1_block(alphas[:, [c]], betas[:, [c]])
            assert np.array_equal(got[:, c], alone[:, 0])
        assert np.array_equal(got[:, -1], _expm_tridiagonal_e1(alphas[:, -1], betas[:, -1]))

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValidationError):
            _expm_tridiagonal_e1_block(np.array([[np.inf]]), np.zeros((0, 1)))


class TestQuadratureFinish:
    @pytest.mark.parametrize("case", ["random-0", "random-1", "brooklyn", "staten_island"])
    def test_matches_probe_action_finish(self, case):
        """The half-step quadrature equals ``v . e^A v`` with the action
        ``||v|| Q e^T e_1`` formed from the same recurrence's basis."""
        if case.startswith("random-"):
            A = random_adjacency(60, 0.08, int(case[-1]))
        else:
            A = bench_adjacency(case)
        V = np.random.default_rng(20).standard_normal((A.shape[0], 12))
        matmat = lambda X: A @ X  # noqa: E731
        quad = block_expm_quadrature(matmat, V, 10)
        Q, alphas, betas, norms = _block_lanczos(matmat, V, 10)
        action = np.einsum("tns,ts->ns", Q, _expm_tridiagonal_e1_block(alphas, betas))
        dots = np.einsum("ns,ns->s", V, action * norms)
        np.testing.assert_allclose(quad, dots, rtol=1e-12, atol=0.0)

    def test_zero_norm_column_is_zero_and_isolated(self):
        A = random_adjacency(25, 0.15, 32)
        V = np.random.default_rng(33).standard_normal((25, 4))
        V[:, 2] = 0.0
        matmat = lambda X: A @ X  # noqa: E731
        quad = block_expm_quadrature(matmat, V, 6)
        assert quad[2] == 0.0
        keep = [0, 1, 3]
        assert np.array_equal(quad[keep], block_expm_quadrature(matmat, V[:, keep], 6))

    def test_early_breakdown_column_freezes(self):
        # Column 0 is an exact eigenvector (norm 2): its recurrence breaks
        # down after one step, giving ||v||^2 e^lambda, while the other
        # columns run on untouched.
        A = random_adjacency(20, 0.2, 34)
        evals, evecs = np.linalg.eigh(A.toarray())
        V = np.random.default_rng(35).standard_normal((20, 3))
        V[:, 0] = 2.0 * evecs[:, -1]
        matmat = lambda X: A @ X  # noqa: E731
        quad = block_expm_quadrature(matmat, V, 8)
        assert quad[0] == pytest.approx(4.0 * np.exp(evals[-1]), rel=1e-12)
        assert np.array_equal(quad[1:], block_expm_quadrature(matmat, V[:, 1:], 8))
        Q, alphas, betas, _ = _block_lanczos(matmat, V, 8)
        assert np.all(Q[1:, :, 0] == 0.0)
        assert np.all(alphas[1:, 0] == 0.0) and np.all(betas[:, 0] == 0.0)

    def test_matches_single_vector_quadrature(self):
        cases = [
            (random_adjacency(40, 0.1, 7), 5, 12),
            (random_adjacency(60, 0.08, 0), 12, 10),
            (random_adjacency(60, 0.08, 1), 12, 10),
            (bench_adjacency("brooklyn"), 12, 10),
            (bench_adjacency("staten_island"), 12, 10),
        ]
        for A, columns, steps in cases:
            V = np.random.default_rng(8).standard_normal((A.shape[0], columns))
            quad = block_expm_quadrature(lambda X: A @ X, V, steps)
            single = [
                lanczos_expm_quadrature(A, V[:, c], steps=steps) for c in range(columns)
            ]
            np.testing.assert_allclose(quad, single, rtol=1e-12, atol=0.0)

    def test_empty_block_and_bad_inputs(self):
        A = random_adjacency(5, 0.5, 18)
        matmat = lambda X: A @ X  # noqa: E731
        assert block_expm_quadrature(matmat, np.zeros((5, 0)), 4).shape == (0,)
        with pytest.raises(ValidationError):
            block_expm_quadrature(matmat, np.zeros(5), 4)
        with pytest.raises(ValidationError):
            block_expm_quadrature(matmat, np.zeros((5, 2)), 0)
