"""Shortest-path engines over adjacency lists and edge lists.

The single-source and point-to-point engines operate on the
``adjacency_lists`` representation produced by
:meth:`repro.network.road.RoadNetwork.adjacency_lists` (and the
transit-network equivalent): ``adj[v]`` is a list of
``(neighbor, edge_id, weight)`` triples. Keeping this flat structure lets
one adjacency build serve the many searches of route growth and
candidate-edge pre-computation.

:func:`shortest_path_forest` is the many-origin engine behind the dataset
layer: one ``scipy.sparse.csgraph`` run per block of origins, with rows
that :func:`reconstruct_edge_path` walks like a :func:`dijkstra` result.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.utils.errors import GraphError

FOREST_BLOCK = 64
"""Origins per ``csgraph.dijkstra`` call in :func:`shortest_path_forest`;
bounds the distance and predecessor rows held at once."""

Adjacency = "list[list[tuple[int, int, float]]]"


def dijkstra(
    adj,
    source: int,
    targets: "Iterable[int] | None" = None,
    cutoff: float = math.inf,
) -> tuple[list[float], list[int], list[int]]:
    """Single-source Dijkstra.

    Returns ``(dist, pred_vertex, pred_edge)`` arrays where unreachable
    vertices have ``dist = inf`` and predecessors ``-1``. If ``targets``
    is given, the search stops once every target is settled; ``cutoff``
    prunes anything farther than the given distance.
    """
    n = len(adj)
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for {n} vertices")
    dist = [math.inf] * n
    pred_v = [-1] * n
    pred_e = [-1] * n
    dist[source] = 0.0
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for nbr, eid, w in adj[v]:
            nd = d + w
            if nd < dist[nbr] and nd <= cutoff:
                dist[nbr] = nd
                pred_v[nbr] = v
                pred_e[nbr] = eid
                heapq.heappush(heap, (nd, nbr))
    return dist, pred_v, pred_e


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


def shortest_path(
    adj, source: int, target: int
) -> tuple[float, list[int], list[int]]:
    """Distance, vertex path, and edge path between two vertices.

    Unreachable targets yield ``(inf, [], [])``.
    """
    dist, pred_v, pred_e = dijkstra(adj, source, targets=[target])
    if math.isinf(dist[target]):
        return math.inf, [], []
    return (
        dist[target],
        reconstruct_vertex_path(pred_v, source, target),
        reconstruct_edge_path(pred_v, pred_e, source, target),
    )


def bidirectional_dijkstra(adj, source: int, target: int) -> tuple[float, list[int]]:
    """Point-to-point distance + vertex path via bidirectional search.

    Roughly halves the searched ball compared with :func:`dijkstra` for
    far-apart endpoints; used by the transfer-convenience evaluation which
    issues many point queries.
    """
    n = len(adj)
    if not (0 <= source < n and 0 <= target < n):
        raise GraphError(f"endpoints ({source}, {target}) out of range for {n} vertices")
    if source == target:
        return 0.0, [source]
    dist_f = {source: 0.0}
    dist_b = {target: 0.0}
    pred_f: dict[int, int] = {source: -1}
    pred_b: dict[int, int] = {target: -1}
    heap_f = [(0.0, source)]
    heap_b = [(0.0, target)]
    best = math.inf
    meet = -1

    def expand(heap, dist_mine, dist_other, pred):
        nonlocal best, meet
        d, v = heapq.heappop(heap)
        if d > dist_mine.get(v, math.inf):
            return
        for nbr, _eid, w in adj[v]:
            nd = d + w
            if nd < dist_mine.get(nbr, math.inf):
                dist_mine[nbr] = nd
                pred[nbr] = v
                heapq.heappush(heap, (nd, nbr))
                if nbr in dist_other and nd + dist_other[nbr] < best:
                    best = nd + dist_other[nbr]
                    meet = nbr

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            expand(heap_f, dist_f, dist_b, pred_f)
        else:
            expand(heap_b, dist_b, dist_f, pred_b)

    if math.isinf(best):
        return math.inf, []
    forward = []
    v = meet
    while v != -1:
        forward.append(v)
        v = pred_f[v]
    forward.reverse()
    v = pred_b[meet]
    while v != -1:
        forward.append(v)
        v = pred_b[v]
    return best, forward


def shortest_path_forest(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: "Sequence[float] | np.ndarray",
    origins: Sequence[int],
) -> Iterator[tuple[int, list[float], list[int], list[int]]]:
    """Full shortest-path trees from many origins over one undirected graph.

    ``edges`` are ``(u, v)`` pairs over ``n`` vertices, at most one per
    pair; an edge's id is its position and ``weights[id]`` its weight.
    Runs ``scipy.sparse.csgraph.dijkstra`` on blocks of
    :data:`FOREST_BLOCK` origins and yields, per origin and in the given
    order, ``(origin, dist, pred_vertex, pred_edge)`` lists shaped like a
    full-tree :func:`dijkstra` result (``inf`` and ``-1`` where
    unreachable), so :func:`reconstruct_edge_path` walks them.

    A distance is summed edge by edge from the origin, as :func:`dijkstra`
    sums it, so both engines report the same float. Where two paths tie
    exactly, the trees may pick different ones.
    """
    for origin in origins:
        if not 0 <= origin < n:
            raise GraphError(f"origin {origin} out of range for {n} vertices")
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    w = np.asarray(weights, dtype=float)
    # No eliminate_zeros: csgraph reads a stored zero as a zero-length edge.
    graph = sp.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    # The edge id of entry (u, v), found by binary search on u * n + v.
    keys = rows * n + cols
    order = np.argsort(keys)
    keys = keys[order]
    entry_edge = np.tile(np.arange(len(ends)), 2)[order]
    for start in range(0, len(origins), FOREST_BLOCK):
        block = list(origins[start : start + FOREST_BLOCK])
        dist, pred = csgraph.dijkstra(graph, indices=block, return_predecessors=True)
        reached = pred >= 0
        pred_edge = np.full(pred.shape, -1, dtype=np.int64)
        pred_edge[reached] = entry_edge[
            np.searchsorted(keys, pred[reached].astype(np.int64) * n + np.nonzero(reached)[1])
        ]
        pred[~reached] = -1
        for i, origin in enumerate(block):
            yield origin, dist[i].tolist(), pred[i].tolist(), pred_edge[i].tolist()


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
