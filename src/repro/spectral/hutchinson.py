"""Hutchinson's stochastic trace estimator (paper Eq. 6-7).

For symmetric PSD ``M``, ``E[v^T M v] = tr(M)`` when ``v`` has unit-
variance entries; averaging ``s = O(log(1/delta)/eps^2)`` quadratic forms
gives a ``(1 +- eps)`` multiplicative estimate with probability
``1 - delta`` (Roosta-Khorasani & Ascher). Here ``M = e^A`` and the
quadratic forms come from Lanczos quadrature.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.lanczos import block_expm_quadrature
from repro.utils.errors import ValidationError
from repro.utils.prng import ensure_rng
from repro.utils.validation import require_positive


def sample_probes(
    n: int, n_probes: int, seed: "int | np.random.Generator | None" = 0
) -> np.ndarray:
    """Draw an ``(n, n_probes)`` standard-Gaussian probe matrix."""
    require_positive(n, "n")
    require_positive(n_probes, "n_probes")
    rng = ensure_rng(seed)
    return rng.standard_normal((n, n_probes))


def check_probes(A, probes: np.ndarray) -> np.ndarray:
    """``probes`` as a float ``(n, s)`` array for the ``(n, n)`` matrix ``A``.

    Any other shape raises :class:`ValidationError`.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[0] != A.shape[0]:
        raise ValidationError(
            f"probes shape {probes.shape} incompatible with matrix {A.shape}"
        )
    return probes


def hutchinson_trace(
    A, probes: np.ndarray, lanczos_steps: int = 10
) -> float:
    """Estimate ``tr(e^A)`` from fixed ``probes`` via Lanczos quadrature.

    Keeping the probes fixed (common random numbers) is what makes
    *differences* of estimates across nearby graphs accurate enough to
    resolve per-edge increments of order 1e-3.
    """
    return float(hutchinson_trace_samples(A, probes, lanczos_steps).mean())


def hutchinson_trace_samples(
    A, probes: np.ndarray, lanczos_steps: int = 10
) -> np.ndarray:
    """Per-probe quadratic forms ``v_i^T e^A v_i`` (for variance studies).

    The validated quadrature entry behind :func:`hutchinson_trace`:
    probes whose shape does not fit ``A`` raise :class:`ValidationError`.
    """
    probes = check_probes(A, probes)
    return block_expm_quadrature(lambda X: A @ X, probes, lanczos_steps)
