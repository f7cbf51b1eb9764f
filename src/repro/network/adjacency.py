"""Sparse adjacency matrices with cheap "what if we add these edges" views.

Natural-connectivity estimation consumes the unweighted symmetric
adjacency matrix of the transit network (Eq. 1/5). During ETA's search,
thousands of candidate paths each need the adjacency of ``G_r`` plus a
handful of new edges; :class:`AdjacencyBuilder` caches the base matrix in
COO form so each extension is a small concatenate + CSR build instead of
a full graph copy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import GraphError


def adjacency_matrix(n: int, edges: Iterable[tuple[int, int]]) -> sp.csr_matrix:
    """Unweighted symmetric adjacency matrix for ``edges`` over ``n`` vertices."""
    rows: list[int] = []
    cols: list[int] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        rows.extend((u, v))
        cols.extend((v, u))
    data = np.ones(len(rows), dtype=float)
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    # Collapse duplicates to weight 1 (adjacency is unweighted).
    mat.data[:] = 1.0
    return mat


class AdjacencyBuilder:
    """Base adjacency in COO form + cheap extended views.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Base undirected edges as ``(u, v)`` pairs.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = int(n)
        rows: list[int] = []
        cols: list[int] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            key = (u, v) if u < v else (v, u)
            if key in seen or u == v:
                continue
            seen.add(key)
            rows.extend((u, v))
            cols.extend((v, u))
        self._edge_set = seen
        self._rows = np.asarray(rows, dtype=np.int32)
        self._cols = np.asarray(cols, dtype=np.int32)
        self._base: sp.csr_matrix | None = None

    @property
    def n_edges(self) -> int:
        return len(self._edge_set)

    def base(self) -> sp.csr_matrix:
        """The adjacency of the base graph (cached)."""
        if self._base is None:
            data = np.ones(len(self._rows), dtype=float)
            self._base = sp.coo_matrix(
                (data, (self._rows, self._cols)), shape=(self.n, self.n)
            ).tocsr()
        return self._base

    def extended(self, extra_edges: Iterable[tuple[int, int]]) -> sp.csr_matrix:
        """Adjacency of the base graph plus ``extra_edges``.

        Only the :meth:`novel_pairs` of ``extra_edges`` are added, keeping
        the matrix 0/1.
        """
        novel = np.asarray(self.novel_pairs(extra_edges), dtype=np.int32)
        if not len(novel):
            return self.base()
        all_rows = np.concatenate([self._rows, novel.ravel()])
        all_cols = np.concatenate([self._cols, novel[:, ::-1].ravel()])
        data = np.ones(len(all_rows), dtype=float)
        return sp.coo_matrix((data, (all_rows, all_cols)), shape=(self.n, self.n)).tocsr()

    def novel_pairs(
        self, pairs: Iterable[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """The subset of ``pairs`` that :meth:`extended` actually adds.

        Out-of-range endpoints raise; self-loops, base members and
        in-batch duplicates are dropped. The result is canonical: sorted
        ``(min, max)`` pairs, so two lists naming the same edge set, in
        any order or orientation, give the same list. This is also the
        bridge to the batched kernel
        (:func:`repro.spectral.batch.batched_expm_traces`), which applies
        perturbations as rank-updates and therefore must never be handed
        an edge the base matrix already contains.
        """
        novel: set[tuple[int, int]] = set()
        for u, v in pairs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for {self.n} vertices")
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key not in self._edge_set:
                novel.add(key)
        return sorted(novel)
