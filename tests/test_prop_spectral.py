"""Property-based tests (hypothesis) for the spectral toolbox.

Random graphs are generated from edge-set strategies; properties checked:
exactness of Lanczos against dense references, monotonicity of natural
connectivity under edge addition, and admissibility of all three upper
bounds.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.bounds import (
    estrada_upper_bound,
    general_upper_bound,
    path_upper_bound,
)
from repro.spectral.connectivity import natural_connectivity_exact
from repro.spectral.eigs import top_k_eigenvalues
from repro.spectral.lanczos import lanczos_expm_quadrature

N_VERTICES = 24


@st.composite
def graph_edges(draw, n=N_VERTICES, min_edges=1, max_edges=60):
    """A random undirected edge set over n vertices (no self-loops)."""
    m = draw(st.integers(min_edges, max_edges))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return sorted(edges)


def adjacency_from(edges, n=N_VERTICES) -> sp.csr_matrix:
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    return sp.csr_matrix(dense)


@st.composite
def graph_and_new_edge(draw):
    edges = draw(graph_edges())
    existing = set(edges)
    candidates = [
        (u, v)
        for u in range(N_VERTICES)
        for v in range(u + 1, N_VERTICES)
        if (u, v) not in existing
    ]
    idx = draw(st.integers(0, len(candidates) - 1))
    return edges, candidates[idx]


class TestLanczosProperties:
    @settings(max_examples=25, deadline=None)
    @given(graph_edges(), st.integers(0, 1000))
    def test_expm_quadrature_matches_dense(self, edges, vseed):
        A = adjacency_from(edges)
        v = np.random.default_rng(vseed).standard_normal(N_VERTICES)
        got = lanczos_expm_quadrature(A, v, steps=N_VERTICES)
        want = v @ scipy.linalg.expm(A.toarray()) @ v
        assert got == pytest.approx(want, rel=1e-6, abs=1e-7)


class TestConnectivityProperties:
    @settings(max_examples=30, deadline=None)
    @given(graph_and_new_edge())
    def test_monotone_under_edge_addition(self, payload):
        """Wu et al.: natural connectivity never decreases when adding edges."""
        edges, new_edge = payload
        A = adjacency_from(edges)
        A2 = adjacency_from(edges + [new_edge])
        assert natural_connectivity_exact(A2) >= natural_connectivity_exact(A) - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(graph_edges())
    def test_lambda_at_least_zero_minus_log_n_bound(self, edges):
        """lambda >= -ln(n) + ln(sum e^{lambda_i}) with sum >= ... > 0."""
        A = adjacency_from(edges)
        lam = natural_connectivity_exact(A)
        # tr(e^A) >= n holds since sum of e^{lambda_i} >= n (AM-GM with
        # sum lambda_i = 0): lambda >= 0.
        assert lam >= -1e-10


class TestBoundProperties:
    @settings(max_examples=20, deadline=None)
    @given(graph_edges(min_edges=4, max_edges=40), st.integers(1, 6))
    def test_estrada_dominates(self, edges, k):
        A = adjacency_from(edges)
        bound = estrada_upper_bound(N_VERTICES, len(edges) + k)
        # Whatever k edges we add, the bound dominates; check adding none.
        assert bound >= natural_connectivity_exact(A) - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(graph_and_new_edge())
    def test_general_bound_dominates_single_edge(self, payload):
        edges, new_edge = payload
        A = adjacency_from(edges)
        lam = natural_connectivity_exact(A)
        eigs = top_k_eigenvalues(A, 2)
        A2 = adjacency_from(edges + [new_edge])
        assert general_upper_bound(lam, eigs, N_VERTICES, 1) >= (
            natural_connectivity_exact(A2) - 1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(graph_edges(min_edges=3, max_edges=40), st.integers(2, 7), st.integers(0, 100))
    def test_path_bound_dominates_path_addition(self, edges, k, seed):
        A = adjacency_from(edges)
        lam = natural_connectivity_exact(A)
        eigs = top_k_eigenvalues(A, max((k + 1) // 2, 1))
        rng = np.random.default_rng(seed)
        verts = rng.choice(N_VERTICES, size=k + 1, replace=False)
        dense = A.toarray()
        for a, b in zip(verts, verts[1:]):
            dense[a, b] = dense[b, a] = 1.0
        bound = path_upper_bound(lam, eigs, N_VERTICES, k)
        assert bound >= natural_connectivity_exact(dense) - 1e-9
