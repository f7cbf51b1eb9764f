"""Unit tests for Hutchinson trace estimation and natural connectivity."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
)
from repro.spectral.hutchinson import (
    hutchinson_trace,
    hutchinson_trace_samples,
    sample_probes,
)
from repro.utils.errors import ValidationError


def random_adjacency(n: int, p: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(float)
    return sp.csr_matrix(dense)


class TestSampleProbes:
    def test_shape_and_determinism(self):
        a = sample_probes(10, 4, seed=0)
        b = sample_probes(10, 4, seed=0)
        assert a.shape == (10, 4)
        assert a == pytest.approx(b)

    def test_bad_args(self):
        with pytest.raises(Exception):
            sample_probes(0, 4)


class TestHutchinsonTrace:
    def test_unbiased_with_many_probes(self):
        A = random_adjacency(60, 0.08, 0)
        truth = float(np.trace(scipy.linalg.expm(A.toarray())))
        probes = sample_probes(60, 800, seed=1)
        est = hutchinson_trace(A, probes, lanczos_steps=15)
        assert est == pytest.approx(truth, rel=0.05)

    def test_per_probe_samples_positive(self):
        A = random_adjacency(30, 0.1, 2)
        probes = sample_probes(30, 16, seed=3)
        samples = hutchinson_trace_samples(A, probes, lanczos_steps=10)
        assert samples.shape == (16,)
        assert (samples > 0).all()  # v^T e^A v > 0: e^A is PD

    def test_shape_mismatch_rejected(self):
        A = random_adjacency(10, 0.3, 4)
        with pytest.raises(ValueError):
            hutchinson_trace(A, np.zeros((5, 3)))


class TestExactConnectivity:
    def test_empty_graph(self):
        # No edges: all eigenvalues 0 -> lambda = ln(n * e^0 / n) = 0.
        A = sp.csr_matrix((5, 5))
        assert natural_connectivity_exact(A) == pytest.approx(0.0)

    def test_complete_graph_k3(self):
        # K3 eigenvalues: 2, -1, -1.
        A = np.ones((3, 3)) - np.eye(3)
        want = np.log((np.exp(2) + 2 * np.exp(-1)) / 3)
        assert natural_connectivity_exact(A) == pytest.approx(want)

    def test_dense_and_sparse_agree(self):
        A = random_adjacency(25, 0.2, 5)
        assert natural_connectivity_exact(A) == pytest.approx(
            natural_connectivity_exact(A.toarray())
        )

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            natural_connectivity_exact(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            natural_connectivity_exact(np.zeros((0, 0)))


class TestEstimator:
    def test_close_to_exact(self):
        A = random_adjacency(120, 0.03, 6)
        est = NaturalConnectivityEstimator(120, n_probes=200, lanczos_steps=12, seed=0)
        exact = natural_connectivity_exact(A)
        assert est.estimate(A) == pytest.approx(exact, abs=0.05)

    def test_paper_defaults_reasonable(self):
        A = random_adjacency(150, 0.02, 7)
        est = NaturalConnectivityEstimator(150)  # s=50, t=10
        exact = natural_connectivity_exact(A)
        assert est.estimate(A) == pytest.approx(exact, abs=0.15)

    def test_increment_with_common_probes_beats_absolute_error(self):
        """Key design point: increments resolve far below absolute error.

        A single absolute estimate carries O(1%) error (~1e-2 here), an
        order of magnitude larger than the increment itself; the common-
        probe difference must land within a small fraction of that.
        """
        A = random_adjacency(100, 0.04, 8).tolil()
        A2 = A.copy()
        A2[0, 50] = A2[50, 0] = 1.0
        A, A2 = A.tocsr(), A2.tocsr()
        truth = natural_connectivity_exact(A2) - natural_connectivity_exact(A)
        est = NaturalConnectivityEstimator(100, n_probes=50, lanczos_steps=10, seed=0)
        got = est.estimate(A2) - est.estimate(A)
        assert got > 0  # right sign despite the tiny magnitude
        assert abs(got - truth) < 5e-3  # well under the ~1e-2 absolute noise

    def test_increment_converges_with_more_probes(self):
        A = random_adjacency(100, 0.04, 8).tolil()
        A2 = A.copy()
        A2[0, 50] = A2[50, 0] = 1.0
        A, A2 = A.tocsr(), A2.tocsr()
        truth = natural_connectivity_exact(A2) - natural_connectivity_exact(A)
        est = NaturalConnectivityEstimator(100, n_probes=1200, lanczos_steps=12, seed=0)
        got = est.estimate(A2) - est.estimate(A)
        assert got == pytest.approx(truth, rel=0.25)

    def test_wrong_shape_rejected(self):
        est = NaturalConnectivityEstimator(10, n_probes=4)
        with pytest.raises(ValidationError):
            est.estimate(sp.csr_matrix((5, 5)))

    def test_bad_n_rejected(self):
        with pytest.raises(ValidationError):
            NaturalConnectivityEstimator(0)
