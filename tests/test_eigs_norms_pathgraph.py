"""Unit tests for eigenvalue helpers, spectral norms, and path spectra."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.spectral.eigs import top_k_eigenvalues
from repro.spectral.norms import spectral_norm
from repro.spectral.path_graph import path_graph_adjacency, path_graph_eigenvalues
from repro.utils.errors import ValidationError


def random_adjacency(n: int, p: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(float)
    return sp.csr_matrix(dense)


class TestTopK:
    def test_matches_dense_small(self):
        A = random_adjacency(40, 0.15, 0)
        full = np.sort(np.linalg.eigvalsh(A.toarray()))[::-1]
        got = top_k_eigenvalues(A, 7)
        assert got == pytest.approx(full[:7], abs=1e-8)

    def test_matches_dense_large_sparse_path(self):
        A = random_adjacency(600, 0.01, 1)  # above the dense cutoff
        full = np.sort(np.linalg.eigvalsh(A.toarray()))[::-1]
        got = top_k_eigenvalues(A, 10)
        assert got == pytest.approx(full[:10], abs=1e-6)
        # Repeatable: ARPACK starts from a fixed vector, not its own stream.
        assert np.array_equal(top_k_eigenvalues(A, 10), got)

    def test_k_exceeding_n_returns_full_spectrum(self):
        A = random_adjacency(12, 0.3, 2)
        got = top_k_eigenvalues(A, 50)
        assert len(got) == 12

    def test_descending_order(self):
        A = random_adjacency(50, 0.1, 3)
        got = top_k_eigenvalues(A, 9)
        assert (np.diff(got) <= 1e-12).all()

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            top_k_eigenvalues(random_adjacency(5, 0.5, 0), 0)


class TestSpectralNorm:
    def test_matches_dense(self):
        A = random_adjacency(60, 0.08, 4)
        want = float(np.abs(np.linalg.eigvalsh(A.toarray())).max())
        assert spectral_norm(A, seed=0) == pytest.approx(want, rel=1e-4)

    def test_bipartite_graph_negative_extreme(self):
        # Star graph K_{1,4}: eigenvalues +-2, 0,0,0 -> norm 2 via -2 too.
        n = 5
        dense = np.zeros((n, n))
        dense[0, 1:] = dense[1:, 0] = 1.0
        assert spectral_norm(sp.csr_matrix(dense), seed=1) == pytest.approx(2.0, rel=1e-5)

    def test_zero_matrix(self):
        assert spectral_norm(sp.csr_matrix((4, 4))) == 0.0

    def test_empty_matrix(self):
        assert spectral_norm(sp.csr_matrix((0, 0))) == 0.0


class TestPathGraph:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_closed_form_matches_adjacency(self, k):
        evals_formula = np.sort(path_graph_eigenvalues(k))[::-1]
        evals_dense = np.sort(
            np.linalg.eigvalsh(path_graph_adjacency(k).toarray())
        )[::-1]
        assert evals_formula == pytest.approx(evals_dense, abs=1e-10)

    def test_adjacency_shape(self):
        A = path_graph_adjacency(4)
        assert A.shape == (5, 5)
        assert A.nnz == 8

    def test_eigenvalues_bounded_by_two(self):
        evals = path_graph_eigenvalues(30)
        assert np.abs(evals).max() < 2.0

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            path_graph_eigenvalues(0)
        with pytest.raises(ValidationError):
            path_graph_adjacency(-1)
