"""Unit tests for the Section 5.2 upper bounds (Estrada / Lemma 3 / Lemma 4).

Every bound must dominate the true natural connectivity of the modified
graph; tightness ordering (Estrada >> General > Path) is checked on a
transit-like random graph, mirroring Table 3.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.spectral.bounds import (
    estrada_upper_bound,
    general_upper_bound,
    path_upper_bound,
    path_upper_bound_increment,
)
from repro.spectral.connectivity import natural_connectivity_exact
from repro.spectral.eigs import top_k_eigenvalues
from repro.utils.errors import ValidationError


def random_adjacency(n: int, p: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(float)
    return sp.csr_matrix(dense)


def add_random_path(A: sp.csr_matrix, k: int, seed: int) -> sp.csr_matrix:
    """Add a k-edge simple path over fresh vertex sequence."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    verts = rng.choice(n, size=k + 1, replace=False)
    dense = A.toarray()
    for a, b in zip(verts, verts[1:]):
        dense[a, b] = dense[b, a] = 1.0
    return sp.csr_matrix(dense)


def add_random_edges(A: sp.csr_matrix, k: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    dense = A.toarray()
    n = A.shape[0]
    added = 0
    while added < k:
        a, b = rng.integers(0, n, 2)
        if a != b and dense[a, b] == 0:
            dense[a, b] = dense[b, a] = 1.0
            added += 1
    return sp.csr_matrix(dense)


class TestEstradaBound:
    def test_dominates_any_graph(self):
        for seed in range(3):
            A = random_adjacency(40, 0.08, seed)
            n, m = 40, int(A.nnz // 2)
            assert estrada_upper_bound(n, m) >= natural_connectivity_exact(A)

    def test_huge_edge_count_no_overflow(self):
        bound = estrada_upper_bound(300_000, 2_000_000)
        assert np.isfinite(bound)
        assert bound > 100

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            estrada_upper_bound(0, 5)
        with pytest.raises(ValidationError):
            estrada_upper_bound(5, -1)


class TestGeneralBound:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_dominates_arbitrary_edge_addition(self, k):
        A = random_adjacency(50, 0.06, 1)
        lam = natural_connectivity_exact(A)
        eigs = top_k_eigenvalues(A, 2 * k)
        A2 = add_random_edges(A, k, seed=k)
        bound = general_upper_bound(lam, eigs, 50, k)
        assert bound >= natural_connectivity_exact(A2) - 1e-9
        assert bound >= lam

    def test_fewer_eigenvalues_only_loosens(self):
        A = random_adjacency(50, 0.06, 2)
        lam = natural_connectivity_exact(A)
        full = top_k_eigenvalues(A, 10)
        loose = general_upper_bound(lam, full[:3], 50, 5)
        tight = general_upper_bound(lam, full, 50, 5)
        assert loose >= tight - 1e-12

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            general_upper_bound(0.5, np.array([1.0]), 10, 0)
        with pytest.raises(ValidationError):
            general_upper_bound(np.inf, np.array([1.0]), 10, 2)
        with pytest.raises(ValidationError):
            general_upper_bound(0.5, np.array([]), 10, 2)


class TestPathBound:
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_dominates_path_addition(self, k):
        A = random_adjacency(60, 0.05, 4)
        lam = natural_connectivity_exact(A)
        eigs = top_k_eigenvalues(A, (k + 1) // 2)
        for seed in range(3):
            A2 = add_random_path(A, k, seed=seed)
            bound = path_upper_bound(lam, eigs, 60, k)
            assert bound >= natural_connectivity_exact(A2) - 1e-9

    def test_tighter_than_general(self):
        """The Table 3 ordering: path bound < general bound."""
        A = random_adjacency(80, 0.035, 5)
        lam = natural_connectivity_exact(A)
        k = 15
        eigs = top_k_eigenvalues(A, 2 * k)
        g = general_upper_bound(lam, eigs, 80, k)
        p = path_upper_bound(lam, eigs, 80, k)
        e = estrada_upper_bound(80, int(A.nnz // 2) + k)
        assert p < g < e

    def test_requires_enough_eigenvalues(self):
        with pytest.raises(ValidationError):
            path_upper_bound(0.5, np.array([2.0]), 30, 9)  # needs 5

    def test_increment_version_nonnegative(self):
        A = random_adjacency(30, 0.1, 6)
        lam = natural_connectivity_exact(A)
        eigs = top_k_eigenvalues(A, 10)
        assert path_upper_bound_increment(lam, eigs, 30, 7) >= 0
