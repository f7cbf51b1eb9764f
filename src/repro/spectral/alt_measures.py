"""Alternative connectivity measures (paper Section 2's comparison).

The paper adopts natural connectivity after arguing that:

* **edge connectivity** (min cut) shows *no change* under big graph
  alterations — a single weak bridge pins it at 1 no matter how much
  the rest improves;
* **algebraic connectivity** (the Fiedler value, second-smallest
  Laplacian eigenvalue) shows *drastic changes* from small alterations
  and collapses to 0 the moment the graph disconnects;
* **natural connectivity** evolves monotonically and smoothly.

These measures are implemented here so the argument is reproducible
(see ``benchmarks/bench_fig01b_measure_comparison.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.network.flow import edge_connectivity as _edge_connectivity
from repro.utils.errors import ValidationError


def laplacian(A) -> np.ndarray:
    """Dense combinatorial Laplacian ``D - A`` of an adjacency matrix."""
    dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValidationError(f"adjacency must be square, got {dense.shape}")
    return np.diag(dense.sum(axis=1)) - dense


def algebraic_connectivity(A) -> float:
    """Fiedler value: second-smallest eigenvalue of the Laplacian.

    0 for disconnected graphs (the property that makes it a fragile
    planning objective — one isolated stop zeroes it out).
    """
    L = laplacian(A)
    if L.shape[0] < 2:
        return 0.0
    evals = np.linalg.eigvalsh(L)
    return float(max(evals[1], 0.0))


def edge_connectivity(A) -> int:
    """Global edge connectivity (minimum edge cut) of an adjacency matrix."""
    mat = A.tocoo() if sp.issparse(A) else sp.coo_matrix(np.asarray(A))
    n = mat.shape[0]
    edges = [
        (int(u), int(v)) for u, v, w in zip(mat.row, mat.col, mat.data)
        if u < v and w != 0
    ]
    return _edge_connectivity(n, edges)
