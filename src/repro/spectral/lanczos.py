"""Lanczos tridiagonalization and the quadrature ``v^T e^A v``.

The estimator of Section 5.1 needs ``v^T e^A v`` for many probe vectors.
Each is obtained from a ``t``-step Lanczos run started at ``v``:
``v^T e^A v ~ ||v||^2 (e^{T_t})_00`` where ``T_t`` is the tridiagonal
Rayleigh quotient. Per Lemma 2 (Musco et al.), ``t = O(||A||_2 +
log(1/eps))`` steps suffice; transit adjacencies have ``||A||_2 ~ 5`` so
the paper's default ``t = 10`` is already accurate to well under 1%.

:func:`block_expm_quadrature` vectorizes the three-term recurrence
across all probes simultaneously (one sparse mat-mat per step instead of
``s`` mat-vecs), which is where this pure-NumPy implementation recovers
most of the speed the paper got from MATLAB. Its block recurrence
(:func:`_block_lanczos`) reorthogonalizes with one contraction per step,
and its finish computes ``e^T e_1`` for all columns at once without an
eigendecomposition (:func:`_expm_tridiagonal_e1_block`). The
single-vector functions (:func:`lanczos_tridiagonalize`,
:func:`_expm_tridiagonal_e1`, :func:`lanczos_expm_quadrature`) keep the
eigh route as the reference the block kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError

_BREAKDOWN_TOL = 1e-12


def lanczos_tridiagonalize(
    matvec, v: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``steps`` Lanczos iterations from ``v`` with full reorthogonalization.

    ``matvec`` maps an ``(n,)`` vector to ``A @ x`` for symmetric ``A``.
    Returns ``(Q, alpha, beta)``: orthonormal basis ``Q`` of shape
    ``(m, n)`` with ``m <= steps`` (early breakdown truncates), diagonal
    ``alpha`` of length ``m`` and off-diagonal ``beta`` of length
    ``m - 1``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"v must be 1-D, got shape {v.shape}")
    n = v.shape[0]
    steps = min(int(steps), n)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros((1, n)), np.zeros(1), np.zeros(0)

    Q = np.zeros((steps, n))
    alpha = np.zeros(steps)
    beta = np.zeros(max(steps - 1, 0))
    q = v / norm
    Q[0] = q
    q_prev = np.zeros(n)
    beta_prev = 0.0
    m = steps
    for j in range(steps):
        w = matvec(q)
        alpha[j] = float(q @ w)
        if j == steps - 1:
            break
        w = w - alpha[j] * q - beta_prev * q_prev
        # Full reorthogonalization keeps T accurate despite float drift.
        w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        if b <= _BREAKDOWN_TOL:
            m = j + 1
            break
        beta[j] = b
        q_prev, q = q, w / b
        beta_prev = b
        Q[j + 1] = q
    return Q[:m], alpha[:m], beta[: max(m - 1, 0)]


def _expm_tridiagonal_e1(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Column ``e^T e_1`` for the tridiagonal matrix ``T(alpha, beta)``."""
    m = len(alpha)
    T = np.diag(alpha)
    for j in range(m - 1):
        T[j, j + 1] = T[j + 1, j] = beta[j]
    evals, evecs = np.linalg.eigh(T)
    return evecs @ (np.exp(evals) * evecs[0])


def lanczos_expm_quadrature(A, v: np.ndarray, steps: int = 10) -> float:
    """Approximate ``v^T e^A v`` via Lanczos quadrature.

    Equals ``||v||^2 (e^{T_t})_{00}``, which is always positive — the
    quantity averaged by Hutchinson's estimator.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    matvec = (lambda x: A @ x) if not callable(A) else A
    _, alpha, beta = lanczos_tridiagonalize(matvec, v, steps)
    coef = _expm_tridiagonal_e1(alpha, beta)
    return norm * norm * float(coef[0])


def block_expm_quadrature(matmat, V: np.ndarray, steps: int) -> np.ndarray:
    """Per-column Lanczos quadrature ``v_c^T e^M v_c``, ``M`` given only
    through ``matmat(X) -> M @ X``.

    Every column of ``V`` runs its own independent Lanczos recurrence
    (:func:`_block_lanczos`), but each step costs one ``matmat`` call
    over the whole block. ``matmat`` must act column-wise (column ``c``
    of the result may depend only on column ``c`` of the input) and
    represent a symmetric operator. A quadratic form needs only
    ``||v||^2 (e^T)_00 = ||v||^2 ||e^{T/2} e_1||^2`` per column. The
    half-step form halves the Taylor radius (fewer terms than
    ``e^T e_1``) and its final sum of squares cannot cancel. Zero
    columns give exactly 0.
    """
    _, alphas, betas, norms = _block_lanczos(matmat, V, steps)
    half = _expm_tridiagonal_e1_block(0.5 * alphas, 0.5 * betas)
    return norms * norms * np.einsum("ts,ts->s", half, half)


def _block_lanczos(matmat, V: np.ndarray, steps: int):
    """The block recurrence: ``(Q, alphas, betas, norms)``.

    ``Q`` is the ``(t, n, s)`` orthonormal basis, ``alphas``/``betas``
    the ``(t, s)`` / ``(t - 1, s)`` tridiagonal coefficients per column
    and ``norms`` the column norms of ``V``. A zero column keeps a zero
    basis and zero coefficients; a column that breaks down (beta below
    ``_BREAKDOWN_TOL``) freezes: its next basis vector is zero, so all
    its later coefficients are exactly zero and ``T`` decouples.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValidationError(f"V must be 2-D, got shape {V.shape}")
    n, s = V.shape
    steps = min(int(steps), n)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")

    norms = np.linalg.norm(V, axis=0)
    Q = np.zeros((steps, n, s))
    alphas = np.zeros((steps, s))
    betas = np.zeros((steps - 1, s))
    q = _normalized_into(Q[0], V, norms, norms > 0)
    q_prev, beta_prev = np.zeros_like(q), np.zeros(s)
    for j in range(steps):
        w = matmat(q)
        alphas[j] = np.einsum("ns,ns->s", q, w)
        if j == steps - 1:
            break
        w = w - alphas[j] * q
        w -= beta_prev * q_prev
        # Full reorthogonalization: one projection onto, and one update
        # against, every basis vector so far.
        basis = Q[: j + 1]
        w -= np.einsum("tns,ts->ns", basis, np.einsum("tns,ns->ts", basis, w))
        b = np.sqrt(np.einsum("ns,ns->s", w, w))
        ok = b > _BREAKDOWN_TOL
        b[~ok] = 0.0
        q_prev, q = q, _normalized_into(Q[j + 1], w, b, ok)
        betas[j] = beta_prev = b
    return Q, alphas, betas, norms


def _normalized_into(out: np.ndarray, X: np.ndarray, norms, keep) -> np.ndarray:
    """``out[:, c] = X[:, c] / norms[c]`` where ``keep[c]``, else 0."""
    np.divide(X, np.where(keep, norms, 1.0), out=out)
    if not keep.all():
        out[:, ~keep] = 0.0
    return out


_TAYLOR_MAX_RADIUS = 16.0
"""Columns whose Gershgorin radius exceeds this take the eigh route."""


def _taylor_reach(max_terms: int) -> np.ndarray:
    """``reach[K - 1]``: the widest radius ``rho`` that ``K`` Taylor terms cover.

    ``K`` terms cover ``rho`` when the tail bound
    ``rho^K / K! / (1 - rho / (K + 1))`` is at most ``u e^{-rho}``
    (``u = 2^-53``); bisection on its logarithm, for every ``K`` at once.
    """
    K = np.arange(1, max_terms + 1, dtype=float)
    log_factorial = np.cumsum(np.log(K))
    log_tol = np.log(np.finfo(float).eps / 2)
    lo, hi = np.zeros_like(K), K + 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        log_tail = K * np.log(mid) - log_factorial - np.log1p(-mid / (K + 1)) + mid
        fits = log_tail <= log_tol
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return lo


_TAYLOR_REACH = _taylor_reach(128)  # covers rho up to ~28 > _TAYLOR_MAX_RADIUS


def _expm_tridiagonal_e1_block(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """``e^{T_c} e_1`` for every column ``c`` of ``(t, s)`` coefficients.

    ``T_c`` is the tridiagonal matrix of ``alphas[:, c]`` and
    ``betas[:, c]``. The vectorized replacement for a stacked ``eigh``:
    a Taylor series of ``e^{T - mu I} e_1`` about the centre ``mu`` of
    the Gershgorin interval ``[mu - rho, mu + rho]``, which bounds
    ``||T - mu I|| <= rho``. Each term is one tridiagonal product on the
    whole block.

    Every column sums its own number of terms ``K``, the fewest whose
    tail bound is at most ``u e^{-rho}`` (:func:`_taylor_reach`); later
    terms are multiplied by 0, so a column's result never depends on the
    other columns in the block. The truncation error is therefore at
    most ``u e^{mu - rho} <= u (e^T)_00``, and rounding bounds every
    entry's error by ``(6 rho + K + 2) u e^{mu + rho}`` to first order,
    i.e. relative to ``||e^T||_2 <= e^{mu + rho}``: at most ``2e-14`` of
    it for ``rho <= 16`` (``K <= 81``). Wider columns (the Lanczos ``T``
    of transit adjacencies have ``rho`` of 3 to 4) take the reference
    :func:`_expm_tridiagonal_e1`.
    """
    t, s = alphas.shape
    off = betas[: t - 1]
    reach = np.zeros((t, s))
    reach[1:] += off
    reach[:-1] += off
    lo = (alphas - reach).min(axis=0)
    hi = (alphas + reach).max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValidationError("non-finite Lanczos coefficients")
    centre = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo)
    wide = radius > _TAYLOR_MAX_RADIUS
    terms = np.searchsorted(_TAYLOR_REACH, radius) + 1
    terms[wide] = 1
    k = np.arange(1, terms.max(initial=1))[:, None]
    scales = np.where(k < terms, 1.0 / k, 0.0)

    diag = alphas - centre
    term = np.zeros((t, s))
    term[0] = 1.0
    total = term.copy()
    for scale in scales:
        nxt = diag * term
        nxt[1:] += off * term[:-1]
        nxt[:-1] += off * term[1:]
        nxt *= scale
        total += nxt
        term = nxt
    total *= np.exp(centre)
    for c in np.flatnonzero(wide):
        total[:, c] = _expm_tridiagonal_e1(alphas[:, c], off[:, c])
    return total
