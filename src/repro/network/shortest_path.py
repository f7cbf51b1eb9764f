"""The shortest-path engine: one ``scipy.sparse.csgraph`` forest.

Every road and transit shortest path in the package comes from
:class:`PathForest`. A forest holds the CSR pattern of one undirected
edge list and the map from CSR entry to edge id, built once;
:meth:`PathForest.trees` then runs ``csgraph.dijkstra`` under any
per-edge weights and yields rows that :func:`reconstruct_vertex_path`
and :func:`reconstruct_edge_path` walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.utils.errors import GraphError

FOREST_BLOCK = 64
"""Origins per ``csgraph.dijkstra`` call in :meth:`PathForest.trees`;
bounds the distance and predecessor rows held at once."""


class PathForest:
    """Shortest-path trees over one undirected graph, under any weights.

    ``edges`` are ``(u, v)`` pairs over ``n`` vertices, at most one per
    pair; an edge's id is its position. The CSR pattern (both directions
    of every edge) and the edge id of each CSR entry are built here, so
    a caller that searches one graph under many weightings, as route
    growth does, pays for them once.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]) -> None:
        ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        # Entry (u, v) sorts by u * n + v, which is CSR order; the edge id
        # of an entry is then found by binary search on that key.
        keys = rows * n + cols
        order = np.argsort(keys)
        self.n = n
        self.n_edges = len(ends)
        self._keys = keys[order]
        self._entry_edge = np.tile(np.arange(len(ends)), 2)[order]
        self._indices = cols[order]
        self._indptr = np.searchsorted(self._keys, np.arange(n + 1) * n)

    def trees(
        self,
        weights: "Sequence[float] | np.ndarray",
        origins: Sequence[int],
    ) -> Iterator[tuple[int, list[float], list[int], list[int]]]:
        """Shortest-path trees from each origin, ``weights[id]`` per edge.

        Runs ``csgraph.dijkstra`` on blocks of :data:`FOREST_BLOCK`
        origins and yields, per origin and in the given order,
        ``(origin, dist, pred_vertex, pred_edge)`` lists: ``inf`` and
        ``-1`` where a vertex is unreachable.

        A distance is summed edge by edge from the origin, so it equals
        :func:`path_weight` along the tree's path. Where two paths tie
        exactly, the tree holds csgraph's choice.
        """
        for origin in origins:
            if not 0 <= origin < self.n:
                raise GraphError(f"origin {origin} out of range for {self.n} vertices")
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n_edges,):
            raise GraphError(
                f"need one weight per edge ({self.n_edges}), got shape {w.shape}"
            )
        # Built from the stored pattern, so a zero weight stays an edge.
        graph = sp.csr_matrix(
            (w[self._entry_edge], self._indices, self._indptr), shape=(self.n, self.n)
        )
        for start in range(0, len(origins), FOREST_BLOCK):
            block = list(origins[start : start + FOREST_BLOCK])
            dist, pred = csgraph.dijkstra(graph, indices=block, return_predecessors=True)
            reached = pred >= 0
            pred_edge = np.full(pred.shape, -1, dtype=np.int64)
            pred_edge[reached] = self._entry_edge[
                np.searchsorted(
                    self._keys,
                    pred[reached].astype(np.int64) * self.n + np.nonzero(reached)[1],
                )
            ]
            pred[~reached] = -1
            for i, origin in enumerate(block):
                yield origin, dist[i].tolist(), pred[i].tolist(), pred_edge[i].tolist()


def reconstruct_vertex_path(pred_v: list[int], source: int, target: int) -> list[int]:
    """Vertex sequence from ``source`` to ``target`` out of a predecessor array.

    Returns ``[]`` when ``target`` is unreachable.
    """
    if target == source:
        return [source]
    if pred_v[target] == -1:
        return []
    path = [target]
    v = target
    while v != source:
        v = pred_v[v]
        if v == -1:
            return []
        path.append(v)
    path.reverse()
    return path


def reconstruct_edge_path(
    pred_v: list[int], pred_e: list[int], source: int, target: int
) -> list[int]:
    """Edge-id sequence from ``source`` to ``target``; ``[]`` if unreachable."""
    if target == source:
        return []
    if pred_v[target] == -1:
        return []
    edges = []
    v = target
    while v != source:
        edges.append(pred_e[v])
        v = pred_v[v]
        if v == -1:
            return []
    edges.reverse()
    return edges


def path_weight(weights: Sequence[float], edge_path: Iterable[int]) -> float:
    """``weights`` summed along an edge path, in path order.

    A plain left fold, the way Dijkstra accumulates a distance. The
    builtin ``sum`` compensates float sums from Python 3.12 on, so its
    last bit depends on the interpreter; this fold does not.
    """
    total = 0.0
    for eid in edge_path:
        total += weights[eid]
    return total
