"""Lanczos approximation of unitary propagators applied to vectors.

Computes exp(-i t A) v for Hermitian A available only through
matrix-vector products.  Each substep builds a Krylov basis with full
reorthogonalisation; the magnitude of the coupling out of the subspace
(last row of the small exponential times the next off-diagonal) serves as
the local error estimate, and substeps are halved until it passes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import KrylovBreakdown


def _lanczos_basis(matvec, v0, m, breakdown_tol):
    """Run m Lanczos steps from v0 (assumed unit norm).

    Returns (V, alpha, beta, next_beta) where V has k <= m columns,
    alpha/beta are the tridiagonal coefficients, and next_beta is the
    coupling out of the subspace (0.0 on happy breakdown).
    """
    n = v0.shape[0]
    V = np.empty((m, n), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(max(m - 1, 0))
    V[0] = v0
    w = np.asarray(matvec(v0), dtype=complex)
    a = np.real(np.vdot(V[0], w))
    alpha[0] = a
    w = w - a * V[0]
    k = 1
    next_beta = 0.0
    while k < m:
        # full reorthogonalisation; conjugating w, not V, avoids a copy of V
        w -= (V[:k] @ w.conj()).conj() @ V[:k]
        b = np.linalg.norm(w)
        if b <= breakdown_tol:
            next_beta = 0.0
            break
        beta[k - 1] = b
        V[k] = w / b
        w = np.asarray(matvec(V[k]), dtype=complex)
        a = np.real(np.vdot(V[k], w))
        alpha[k] = a
        w = w - a * V[k] - b * V[k - 1]
        k += 1
        next_beta = b
    else:
        # ran the full m steps; measure the residual coupling
        w -= (V[:m] @ w.conj()).conj() @ V[:m]
        next_beta = float(np.linalg.norm(w))
    return V[:k], alpha[:k], beta[: k - 1], next_beta


def _small_expimv(alpha, beta, tau):
    """Columns-of-identity action of exp(-i tau T) for tridiagonal T."""
    evals, evecs = eigh_tridiagonal(alpha, beta)
    return evecs @ (np.exp(-1j * tau * evals) * evecs[0, :].conj())


def expimv(matvec, v, t, tol=1e-13, max_krylov=30):
    """Approximate exp(-i t A) v for Hermitian A given as a matvec.

    Adaptive in the substep size; per-substep error is kept below
    tol * |v|.  Raises KrylovBreakdown if the substep underflows without
    reaching the tolerance.
    """
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if t == 0.0 or nrm == 0.0:
        return v.copy()
    scale = nrm
    breakdown_tol = 1e-14
    done = 0.0
    sign = 1.0 if t >= 0 else -1.0
    remaining = abs(t)
    sub = remaining
    y = v.copy()
    while remaining > 0.0:
        cur = np.linalg.norm(y)
        V, alpha, beta, next_beta = _lanczos_basis(
            matvec, y / cur, max_krylov, breakdown_tol * max(1.0, cur)
        )
        while True:
            tau = min(sub, remaining)
            small = _small_expimv(alpha, beta, sign * tau)
            # estimate is relative to the current norm; compare absolutes
            est = abs(tau) * next_beta * abs(small[-1]) * cur
            # error budget proportional to the fraction of t covered
            budget = tol * max(scale, 1e-30) * (tau / abs(t)) / 2.0
            # the last component bottoms out at rounding level once the
            # approximation is converged; don't chase it below that
            small_floor = 8.0 * len(alpha) * np.finfo(float).eps
            if est <= budget or next_beta == 0.0 \
                    or abs(small[-1]) <= small_floor:
                break
            sub *= 0.5
            if sub < abs(t) * 1e-12:
                raise KrylovBreakdown(
                    f"substep underflow at t={done:.3e} of {t:.3e} "
                    f"(estimate {est:.3e}, max_krylov={max_krylov})"
                )
        y = cur * (small @ V)
        remaining -= tau
        done += tau
        if est <= budget / 4.0:
            sub = min(2.0 * sub, remaining if remaining > 0 else sub)
    return y
