"""Tests for alternative connectivity measures (paper Section 2)."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.spectral.alt_measures import (
    algebraic_connectivity,
    edge_connectivity,
    laplacian,
)
from repro.spectral.connectivity import natural_connectivity_exact
from repro.utils.errors import ValidationError


def adjacency(edges, n):
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    return sp.csr_matrix(dense)


class TestLaplacian:
    def test_row_sums_zero(self):
        A = adjacency([(0, 1), (1, 2)], 3)
        L = laplacian(A)
        assert L.sum(axis=1) == pytest.approx(np.zeros(3))

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            laplacian(np.zeros((2, 3)))


class TestAlgebraicConnectivity:
    def test_known_path_graph(self):
        # P3 Fiedler value is 1 (Laplacian eigenvalues 0, 1, 3).
        A = adjacency([(0, 1), (1, 2)], 3)
        assert algebraic_connectivity(A) == pytest.approx(1.0)

    def test_complete_graph(self):
        # K_n has Fiedler value n.
        n = 5
        A = adjacency([(u, v) for u in range(n) for v in range(u + 1, n)], n)
        assert algebraic_connectivity(A) == pytest.approx(n)

    def test_disconnected_is_zero(self):
        A = adjacency([(0, 1), (2, 3)], 4)
        assert algebraic_connectivity(A) == pytest.approx(0.0, abs=1e-10)

    def test_matches_networkx(self):
        g = nx.erdos_renyi_graph(15, 0.3, seed=4)
        A = nx.to_scipy_sparse_array(g, format="csr", dtype=float)
        want = nx.algebraic_connectivity(g)
        assert algebraic_connectivity(sp.csr_matrix(A)) == pytest.approx(want, rel=1e-6)


class TestPaperSection2Argument:
    """The monotonicity/sensitivity story that motivates the paper's choice."""

    def test_edge_connectivity_blind_to_big_changes(self):
        """A weak bridge pins edge connectivity at 1 regardless of how
        dense the rest becomes — 'no change by big graph alteration'."""
        base = [(0, 1), (1, 2), (2, 3), (3, 4)]  # path: kappa = 1
        dense_side = base + [(0, 2), (1, 3), (0, 3)]  # densify one side
        A1 = adjacency(base, 5)
        A2 = adjacency(dense_side, 5)
        assert edge_connectivity(A1) == edge_connectivity(A2) == 1
        # Natural connectivity sees the improvement.
        assert natural_connectivity_exact(A2) > natural_connectivity_exact(A1)

    def test_algebraic_connectivity_collapses_on_disconnect(self):
        """'Drastic changes by small graph alterations': removing one
        pendant edge zeroes the Fiedler value; natural connectivity
        moves smoothly."""
        connected = [(0, 1), (1, 2), (2, 0), (2, 3)]
        cut = [(0, 1), (1, 2), (2, 0)]  # drop the pendant edge
        A1 = adjacency(connected, 4)
        A2 = adjacency(cut, 4)
        assert algebraic_connectivity(A1) > 0.3
        assert algebraic_connectivity(A2) == pytest.approx(0.0, abs=1e-10)
        drop_nat = natural_connectivity_exact(A1) - natural_connectivity_exact(A2)
        assert 0 < drop_nat < 0.5  # smooth, modest decrease

    def test_natural_connectivity_monotone_under_removal(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        values = []
        for cut_at in range(len(edges) + 1):
            A = adjacency(edges[: len(edges) - cut_at], 4)
            values.append(natural_connectivity_exact(A))
        assert values == sorted(values, reverse=True)
