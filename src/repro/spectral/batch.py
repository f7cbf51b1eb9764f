"""Batched candidate evaluation: ``tr(e^{A_i})`` for many perturbed graphs.

ETA's hot path (paper Bottleneck 1) prices every candidate-edge
extension of a round with its own Lanczos+Hutchinson estimate — one
block call per neighbor edge per round, each re-entering Python and
scipy's sparse mat-mat dispatch. But the ``m`` graphs of a round differ
from the base adjacency only by a handful of edges, so the ``m``
recurrences can share almost all of their work:

* the fixed probe matrix ``V`` (``(n, s)``) is stacked across variants
  into a single ``(n, m*s)`` block — one shared recurrence state,
* each Lanczos step is **one** sparse ``A_base @ Q`` product over the
  whole block (instead of ``m`` separate products), and
* each variant's edge perturbation is applied as a sparse symmetric
  rank-update on its own column slice: adding edge ``(u, v)`` to an
  unweighted adjacency contributes ``Q[v]`` to row ``u`` of the matvec
  and ``Q[u]`` to row ``v`` — exact, not approximate.

The dense per-column bookkeeping (coefficients, reorthogonalization,
``e^T e_1``) is identical math to the single-graph
:func:`repro.spectral.hutchinson.hutchinson_trace` — both run the
shared block recurrence in :mod:`repro.spectral.lanczos` and its
quadrature finish — so the batched estimate of a variant agrees with
its sequential estimate to floating-point roundoff (the differential
oracle suite in ``tests/test_batch_oracle.py`` pins the end-to-end
contract: identical routes, objectives within 1e-9).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.spectral.hutchinson import check_probes
from repro.spectral.lanczos import block_expm_quadrature
from repro.utils.errors import GraphError, ValidationError

DEFAULT_MAX_COLUMNS = 1024
"""Column budget per shared recurrence: ``m*s`` beyond this is chunked
(bounds the ``steps * n * m * s`` basis storage)."""


def _normalize_groups(
    pair_groups: Sequence, n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validate and dedupe each variant's edge list into index arrays.

    Mirrors :meth:`repro.network.adjacency.AdjacencyBuilder.extended`
    semantics for the *added* edges: out-of-range endpoints raise,
    self-loops and duplicate pairs within a group are skipped. Pairs
    already present in the base matrix are the **caller's** job to
    filter (see ``AdjacencyBuilder.novel_pairs``) — this module never
    sees the base edge set.
    """
    groups: list[tuple[np.ndarray, np.ndarray]] = []
    for pairs in pair_groups:
        us: list[int] = []
        vs: list[int] = []
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            us.append(u)
            vs.append(v)
        groups.append(
            (np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp))
        )
    return groups


def _stacked_operator(A, probes: np.ndarray, pair_groups: Sequence):
    """``(V, matmat)`` for the ``(n, m*s)`` block of every variant.

    ``matmat`` is one ``A @ Q`` product plus every variant's symmetric
    unweighted rank-update in a single ``np.add.at`` scatter. Adding
    edge ``(u, v)`` contributes ``Q[v]`` to row ``u`` and ``Q[u]`` to
    row ``v`` of the variant's column slice; the scatter lists each
    group's ``u``-rows, then its ``v``-rows, so every (row, variant)
    entry accumulates in the same order as one ``np.add.at`` per group
    and side would, and ``np.add.at`` sums endpoints shared by several
    added edges correctly.
    """
    n, s = probes.shape
    groups = _normalize_groups(pair_groups, n)
    m = len(groups)
    dst: list[np.ndarray] = []
    src: list[np.ndarray] = []
    for i, (us, vs) in enumerate(groups):
        # Row r of variant i is row r * m + i of the (n*m, s) view.
        dst += [us * m + i, vs * m + i]
        src += [vs * m + i, us * m + i]
    cols = np.arange(s)
    dst_flat = (np.concatenate(dst)[:, None] * s + cols).ravel()
    src_flat = (np.concatenate(src)[:, None] * s + cols).ravel()

    def matmat(Q: np.ndarray) -> np.ndarray:
        W = np.ascontiguousarray(A @ Q)
        if dst_flat.size:
            np.add.at(W.reshape(-1), dst_flat, Q.reshape(-1)[src_flat])
        return W

    return np.tile(probes, (1, m)), matmat


def batched_expm_traces(
    A,
    probes: np.ndarray,
    pair_groups: Sequence,
    steps: int = 10,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> np.ndarray:
    """Hutchinson estimates of ``tr(e^{A_i})`` for every pair group.

    ``pair_groups[i]`` lists the edges added to ``A`` for variant ``i``
    (an empty group evaluates the base matrix itself). Returns shape
    ``(len(pair_groups),)``; an empty sequence returns an empty array
    without touching ``A``. Variants are processed in chunks of at most
    ``max(1, max_columns // s)`` so basis storage stays bounded
    regardless of the batch size. Uses the quadrature finish
    (:func:`~repro.spectral.lanczos.block_expm_quadrature`), exactly as
    :func:`~repro.spectral.hutchinson.hutchinson_trace` does.
    """
    probes = check_probes(A, probes)
    if max_columns < 1:
        raise ValidationError(f"max_columns must be >= 1, got {max_columns}")
    groups = list(pair_groups)
    m = len(groups)
    if m == 0:
        return np.zeros(0)
    s = probes.shape[1]
    chunk = max(1, int(max_columns) // max(s, 1))
    traces = np.empty(m)
    for start in range(0, m, chunk):
        part = groups[start : start + chunk]
        V, matmat = _stacked_operator(A, probes, part)
        quad = block_expm_quadrature(matmat, V, steps)
        traces[start : start + len(part)] = quad.reshape(len(part), s).mean(axis=1)
    return traces
