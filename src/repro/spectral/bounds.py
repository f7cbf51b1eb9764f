"""Connectivity upper bounds (paper Section 5.2).

Three bounds on the natural connectivity after adding ``k`` edges:

* :func:`estrada_upper_bound` — the De La Peña et al. Estrada-index bound;
  far too loose to normalize with (Table 3, column 2).
* :func:`general_upper_bound` — Lemma 3, for ``k`` *arbitrary* edges,
  via Golden-Thompson + Lasserre's trace inequality.
* :func:`path_upper_bound` — Lemma 4, tighter when the ``k`` edges form a
  simple path, via Fan's inequality and the closed-form path spectrum.

All functions take ``lambda_base`` (the base graph's natural
connectivity) and the top eigenvalues of the base adjacency, so callers
amortize one spectral computation across many bound evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.path_graph import path_graph_eigenvalues
from repro.utils.errors import ValidationError


def estrada_upper_bound(n_vertices: int, n_edges_after: int) -> float:
    """De La Peña bound on ``lambda`` of any graph with the given size.

    ``lambda(G') <= ln(1 + (e^sqrt(2 m') - 1) / n)`` with ``m' = |E_r| + k``
    total edges. Computed in log-space to survive large ``m'``.
    """
    if n_vertices < 1:
        raise ValidationError(f"need >= 1 vertex, got {n_vertices}")
    if n_edges_after < 0:
        raise ValidationError(f"edge count must be >= 0, got {n_edges_after}")
    s = float(np.sqrt(2.0 * n_edges_after))
    # ln((n - 1 + e^s) / n), stable for huge s.
    return float(np.logaddexp(np.log(max(n_vertices - 1, 1e-300)), s) - np.log(n_vertices))


def general_upper_bound(
    lambda_base: float, top_eigenvalues: np.ndarray, n: int, k: int
) -> float:
    """Lemma 3: bound after adding ``k`` arbitrary unweighted edges.

    ``tr(e^A') <= tr(e^A) - sum_{i<=2k} e^{lambda_i}
    + e^{lambda_1} (2k - 1 + e^sqrt(2k))``; dividing by ``n`` and taking
    the log yields the bound on the natural connectivity. Passing fewer
    than ``2k`` eigenvalues keeps the bound valid (it only loosens it).
    """
    _check_bound_args(lambda_base, top_eigenvalues, n, k)
    eigs = np.asarray(top_eigenvalues, dtype=float)
    m = min(2 * k, len(eigs))
    trace = n * np.exp(lambda_base)
    corrected = trace - float(np.exp(eigs[:m]).sum())
    addition = float(np.exp(eigs[0])) * (2.0 * k - 1.0 + float(np.exp(np.sqrt(2.0 * k))))
    value = max(corrected + addition, trace)
    return float(np.log(value / n))


def path_upper_bound(
    lambda_base: float, top_eigenvalues: np.ndarray, n: int, k: int
) -> float:
    """Lemma 4: bound after adding a ``k``-edge *simple path*.

    ``lambda(G') <= ln(e^{lambda(G)} +
    (1/n) sum_{i<=floor((k+1)/2)} (e^{sigma_i} - 1) e^{lambda_i})`` with
    ``sigma_i = 2 cos(i pi / (k+2))`` the path-graph eigenvalues. Requires
    the top ``floor((k+1)/2)`` base eigenvalues.
    """
    _check_bound_args(lambda_base, top_eigenvalues, n, k)
    # A simple path added to an n-vertex graph has at most n - 1 edges.
    k = min(k, max(n - 1, 1))
    m = (k + 1) // 2
    eigs = np.asarray(top_eigenvalues, dtype=float)
    if len(eigs) < m:
        raise ValidationError(
            f"path bound with k={k} needs {m} top eigenvalues, got {len(eigs)}"
        )
    sigma = path_graph_eigenvalues(k)[:m]
    addition = float(np.sum((np.exp(sigma) - 1.0) * np.exp(eigs[:m])))
    return float(np.log(np.exp(lambda_base) + addition / n))


def path_upper_bound_increment(
    lambda_base: float, top_eigenvalues: np.ndarray, n: int, k: int
) -> float:
    """Lemma 4 as a bound on the connectivity *increment* ``O_lambda``."""
    return path_upper_bound(lambda_base, top_eigenvalues, n, k) - lambda_base


def _check_bound_args(
    lambda_base: float, top_eigenvalues: np.ndarray, n: int, k: int
) -> None:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(np.atleast_1d(top_eigenvalues)) == 0:
        raise ValidationError("need at least one top eigenvalue")
    if not np.isfinite(lambda_base):
        raise ValidationError(f"lambda_base must be finite, got {lambda_base}")
