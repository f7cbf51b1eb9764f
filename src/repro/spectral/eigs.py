"""Top-k eigenvalues of sparse symmetric matrices.

Lemma 3 needs the top ``2k`` and Lemma 4 the top ``floor((k+1)/2)``
eigenvalues of the base adjacency. We use ARPACK (``eigsh``) when the
matrix is large enough and fall back to dense ``eigvalsh`` otherwise
(ARPACK requires ``k < n - 1``). Up to the same size,
:func:`dense_spectrum` gives the whole spectrum, from which a
precompute also takes ``lambda(G_r)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.errors import ValidationError
from repro.utils.prng import ensure_rng

_DENSE_CUTOFF = 512
"""Up to this size a dense solve is both faster and more robust. Every
canned ``tiny``, ``small`` and ``bench`` city (at most 406 stops) falls
under it; a dense ``eigvalsh`` at 512 takes tens of milliseconds."""


def dense_spectrum(A) -> np.ndarray:
    """Every eigenvalue of ``A``, descending, by one dense ``eigvalsh``.

    Empty above :data:`_DENSE_CUTOFF`, where a dense solve costs
    ``O(n^3)`` (3.8 s on the 4,055-stop ``paper`` nyc, one BLAS thread).
    """
    if A.shape[0] > _DENSE_CUTOFF:
        return np.empty(0)
    return _eigvalsh(A)[::-1]


def _eigvalsh(A) -> np.ndarray:
    dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    return np.linalg.eigvalsh(dense)


def top_k_eigenvalues(A, k: int) -> np.ndarray:
    """The ``k`` algebraically largest eigenvalues, descending.

    If ``k`` exceeds ``n`` the full spectrum is returned.
    """
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    n = A.shape[0]
    k = min(k, n)
    if n <= _DENSE_CUTOFF or k >= n - 1:
        return _eigvalsh(A)[::-1][:k]
    mat = A if sp.issparse(A) else sp.csr_matrix(A)
    # A fixed start vector: left to itself ARPACK draws one from a stream
    # that advances with every call, so repeated calls would differ in
    # the last bits and a precompute would depend on its call history.
    v0 = ensure_rng(0).uniform(-1.0, 1.0, n)
    try:
        evals = spla.eigsh(
            mat, k=k, which="LA", v0=v0, return_eigenvectors=False
        )
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        evals = exc.eigenvalues
        if evals is None or len(evals) < k:
            dense = mat.toarray()
            evals = np.linalg.eigvalsh(dense)[-k:]
    return np.sort(evals)[::-1]
