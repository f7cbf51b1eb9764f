"""Unit tests for adjacency matrices and extended views."""

import numpy as np
import pytest

from repro.network.adjacency import AdjacencyBuilder, adjacency_matrix
from repro.utils.errors import GraphError


class TestAdjacencyMatrix:
    def test_symmetric_unweighted(self):
        A = adjacency_matrix(4, [(0, 1), (1, 2)])
        assert A.shape == (4, 4)
        assert A[0, 1] == 1.0 and A[1, 0] == 1.0
        assert A[2, 3] == 0.0
        assert (A != A.T).nnz == 0

    def test_duplicate_edges_stay_binary(self):
        A = adjacency_matrix(3, [(0, 1), (0, 1)])
        assert A.max() == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            adjacency_matrix(2, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            adjacency_matrix(2, [(1, 1)])


class TestAdjacencyBuilder:
    @pytest.fixture
    def builder(self):
        return AdjacencyBuilder(5, [(0, 1), (1, 2), (2, 3)])

    def test_base_matches_direct_build(self, builder):
        direct = adjacency_matrix(5, [(0, 1), (1, 2), (2, 3)])
        assert (builder.base() != direct).nnz == 0

    def test_base_is_cached(self, builder):
        assert builder.base() is builder.base()

    def test_extended_adds_edges(self, builder):
        ext = builder.extended([(3, 4), (0, 4)])
        assert ext[3, 4] == 1.0 and ext[4, 0] == 1.0
        # Base unchanged.
        assert builder.base()[3, 4] == 0.0

    def test_extended_ignores_existing_and_duplicates(self, builder):
        ext = builder.extended([(0, 1), (3, 4), (4, 3)])
        assert ext.nnz == builder.base().nnz + 2  # only (3,4) added once
        assert ext.max() == 1.0

    def test_extended_empty_returns_base(self, builder):
        assert builder.extended([]) is builder.base()

    def test_out_of_range_extension_rejected(self, builder):
        with pytest.raises(GraphError):
            builder.extended([(0, 50)])

    def test_eigenvalues_of_known_graph(self):
        # Path graph P3: eigenvalues +-sqrt(2), 0.
        b = AdjacencyBuilder(3, [(0, 1), (1, 2)])
        evals = np.linalg.eigvalsh(b.base().toarray())
        assert evals == pytest.approx([-np.sqrt(2), 0.0, np.sqrt(2)], abs=1e-12)
