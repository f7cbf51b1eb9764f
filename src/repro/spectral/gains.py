"""Probe-free connectivity gains: block Lanczos from the stops a path adds.

Adding a set of novel stop pairs to the unweighted adjacency ``A``
changes it by ``E = P C P^T``, where ``P = [e_s1 ... e_sb]`` holds the
unit vectors of the ``b`` stops the pairs touch and ``C`` is the pairs'
0/1 adjacency on those stops. ``E`` lives on ``span(P)``, so a block
Lanczos run on ``A`` started at ``P`` sees all of it: after ``m`` block
steps with basis ``Q`` and block-tridiagonal ``T = Q^T A Q``,

    tr e^{A+E} - tr e^A  ~  tr e^{T + E1 C E1^T} - tr e^T,

with ``E1`` the first ``b`` columns of the identity. This is block Gauss
quadrature of ``P^T (zI - A)^{-1} P`` (Golub and Meurant, *Matrices,
Moments and Quadrature*, 2010) carried through the matrix determinant
lemma; it is exact once the Krylov space is exhausted, and its error
falls faster than geometrically in ``m`` before that. Two small
``eigvalsh`` calls per set finish it: no probes, no seed and no
difference of two noisy traces. The connectivity gain is then
``log1p(delta_tr / tr e^A)`` (Eq. 5).

Sets are grouped by block width ``b`` (2 for one pair, up to ``k + 1``
for a route). A group's basis is one ``(G, n, m b)`` array, every dense
product a stacked ``np.matmul`` (one matrix at a time, so a set's
numbers never depend on the other sets in its call) and every step one
sparse ``A @ X`` over all ``G b`` columns. Each new block is split by an
SVD, and singular values at or below ``_DEFLATION_RTOL * ||A||`` are
dropped: the zeroed column decouples from ``T`` and adds ``e^0`` to both
traces. A rank-blind split (QR without pivoting) would normalize
rounding noise into a basis vector once the space is exhausted.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.spectral.batch import DEFAULT_MAX_COLUMNS, _normalize_groups
from repro.utils.errors import ValidationError

GAIN_STEPS = 8
"""Block Lanczos steps per set. Against dense ``eigvalsh`` the gains are
within 2e-10 relative on every candidate edge of the canned cities
(``tests/test_gain_kernel.py`` states a bound of 1e-8)."""

_DEFLATION_RTOL = 1e-8
"""A singular value of a new block at or below this times ``||A||`` is
dropped. Dropping a coupling ``s`` moves the traces by ``O(s^2)``."""


def block_lanczos_gains(
    A,
    pair_sets: Sequence,
    trace_base: float,
    steps: int = GAIN_STEPS,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> np.ndarray:
    """``log1p((tr e^{A + E_i} - tr e^A) / trace_base)`` for each pair set.

    ``pair_sets[i]`` lists the stop pairs added to ``A`` for set ``i``;
    each pair must be absent from ``A`` (see
    ``AdjacencyBuilder.novel_pairs``). Self-loops and repeated pairs are
    skipped, and an empty set gains exactly 0. ``trace_base`` is
    ``tr e^A``. Each set's gain is bitwise independent of the other sets
    in the call; sets of one width are processed in chunks of at most
    ``max(1, max_columns // b)``.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if max_columns < 1:
        raise ValidationError(f"max_columns must be >= 1, got {max_columns}")
    if not trace_base > 0:
        raise ValidationError(f"trace_base must be positive, got {trace_base!r}")
    blocks = [_block(us, vs) for us, vs in _normalize_groups(pair_sets, A.shape[0])]
    by_width: dict[int, list[int]] = {}
    for i, (stops, _, _) in enumerate(blocks):
        if stops.size:
            by_width.setdefault(stops.size, []).append(i)
    norm = np.asarray(abs(A).sum(axis=1)).max(initial=0.0)
    tol = _DEFLATION_RTOL * max(float(norm), 1.0)
    deltas = np.zeros(len(blocks))
    for b, members in by_width.items():
        chunk = max(1, int(max_columns) // b)
        for start in range(0, len(members), chunk):
            part = members[start : start + chunk]
            deltas[part] = _width_deltas(A, [blocks[i] for i in part], b, steps, tol)
    return np.log1p(deltas / trace_base)


def _block(us: np.ndarray, vs: np.ndarray):
    """``(stops, iu, iv)``: the sorted stops of a set and its pairs' positions."""
    stops = np.unique(np.concatenate([us, vs]))
    return stops, np.searchsorted(stops, us), np.searchsorted(stops, vs)


def _width_deltas(A, blocks, b: int, steps: int, tol: float) -> np.ndarray:
    """``tr e^{T + E1 C E1^T} - tr e^T`` for ``G`` sets of block width ``b``."""
    G, n, width = len(blocks), A.shape[0], steps * b
    Q = np.zeros((G, n, width))
    # T[0] is T and T[1] is T + E1 C E1^T; only their lower triangles are
    # filled, which is all eigvalsh reads.
    T = np.zeros((2, G, width, width))
    first = np.arange(b)
    for g, (stops, iu, iv) in enumerate(blocks):
        Q[g, stops, first] = 1.0
        T[1, g, np.maximum(iu, iv), np.minimum(iu, iv)] = 1.0
    for j in range(steps):
        lo, hi = j * b, (j + 1) * b
        X = np.ascontiguousarray(Q[:, :, lo:hi].transpose(1, 0, 2)).reshape(n, G * b)
        W = np.ascontiguousarray((A @ X).reshape(n, G, b).transpose(1, 0, 2))
        basis = Q[:, :, :hi]
        H = np.matmul(basis.transpose(0, 2, 1), W)
        T[:, :, lo:hi, lo:hi] += H[:, lo:hi]
        if j == steps - 1:
            break
        # Full reorthogonalization, twice: the second pass removes what
        # rounding left of the first.
        W -= np.matmul(basis, H)
        W -= np.matmul(basis, np.matmul(basis.transpose(0, 2, 1), W))
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
        keep = s > tol
        Q[:, :, hi : hi + b] = U * keep[:, None, :]
        T[:, :, hi : hi + b, lo:hi] = (s * keep)[:, :, None] * Vt
    traces = np.exp(np.linalg.eigvalsh(T)).sum(axis=-1)
    return traces[1] - traces[0]
