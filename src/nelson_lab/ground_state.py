"""Ground-state energies of the coupled system at fixed nucleon number.

With n nucleons, eps = lambda^2 / n, the lowest eigenvalue of H on the
n-nucleon sector approaches the minimum of the classical energy over
|z1|_x = lambda as n grows; coherent product states at the classical
minimiser give variational upper bounds along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import drot, get_blas_funcs

from .classical_energy import minimize_constrained
from .errors import ConvergenceFailure
from .fock_space import ProductOperator, sector_basis
from .quantum_dynamics import (FactoredHamiltonian, active_meson_basis,
                               coherent_product_state)


def _lobpcg(matrix, x0, tol, maxiter):
    """Lowest eigenpair of a Hermitian matrix from the start x0 by LOBPCG
    with block size 1 (Knyazev 2001).  Each step takes the lowest Ritz
    pair of span{x, p, r}: x the current vector, r = Hx - theta x its
    residual and p the previous search direction.  r and p are kept
    orthonormal to x and to each other (Hetmaniuk and Lehoucq 2006), so
    the projected problem is a plain 3x3 eigh and the new p is x turned
    against its update by one plane rotation.  Stops at ARPACK's rule
    |r| <= tol max(1, |theta|), checked on a freshly computed Hx, and
    returns theta, x and that |r|; raises ConvergenceFailure after
    maxiter steps.  Each product is written into its row of the images;
    an array or a sparse matrix runs as the `ProductOperator` of the one
    pair (csr(matrix), None) over (dim, 1)."""
    if not isinstance(matrix, ProductOperator):
        matrix = ProductOperator([(sp.csr_matrix(matrix), None)],
                                 (matrix.shape[0], 1))
    dtype = np.result_type(matrix.dtype, x0.dtype, np.float64)
    # rows x, p, r and their images H x, H p, H r, updated in place by BLAS
    basis = np.zeros((3, x0.size), dtype)
    images = np.zeros_like(basis)
    (x, p, r), (hx, hp, hr) = basis, images
    axpy, scal = get_blas_funcs(("axpy", "scal"), (basis,))
    x[:] = x0 / np.linalg.norm(x0)
    matrix._matmat(x[:, None], out=hx[:, None])
    theta = np.vdot(x, hx).real
    rows = slice(None, None, 2)  # x and r: there is no p before step 1
    fresh = True  # hx is H x itself, not the result of the updates
    for _ in range(maxiter):
        r[:] = hx
        axpy(x, r, a=-theta)
        residual = np.linalg.norm(r)
        if residual <= tol * max(1.0, abs(theta)):
            if fresh:
                return float(theta), x.copy(), float(residual)
            # the updates let x drift from norm 1 and hx from H x by
            # roundoff, so the test is made again on H x; if it fails
            # there, the iteration restarts from x alone
            scal(1.0 / np.linalg.norm(x), x)
            matrix._matmat(x[:, None], out=hx[:, None])
            theta = np.vdot(x, hx).real
            fresh, rows = True, slice(None, None, 2)
            continue
        fresh = False
        # r is orthogonal to x and p but for roundoff, which is large
        # against a small r
        for v in basis[rows][:-1]:
            axpy(v, r, a=-np.vdot(v, r))
        scal(1.0 / np.linalg.norm(r), r)
        matrix._matmat(r[:, None], out=hr[:, None])
        # the lower triangle of the projected matrix, which eigh reads; a
        # vdot per entry, because BLAS runs a 3 x dim x 3 gemm far slower
        vecs, imgs = basis[rows], images[rows]
        gram = np.zeros((len(vecs),) * 2, dtype)
        for i in range(len(vecs)):
            for j in range(i + 1):
                gram[i, j] = np.vdot(vecs[i], imgs[j])
        thetas, ritz = np.linalg.eigh(gram)
        theta, c = thetas[0], ritz[:, 0]
        if c[0] != 0:
            c = c * (abs(c[0]) / c[0])  # c[0] real and positive
        c_p = c[1] if len(c) == 3 else 0.0
        s = np.hypot(abs(c_p), abs(c[-1]))
        # p <- (c_p p + c_r r)/s, then (x, p) <- (c_x x + s p, c_x p - s x);
        # the rotation is real, so it acts on a complex vector's float view
        for v, w, u in ((x, p, r), (hx, hp, hr)):
            scal(c_p / s, w)
            axpy(u, w, a=c[-1] / s)
            drot(v.view(float), w.view(float), c[0].real, s,
                 overwrite_x=True, overwrite_y=True)
        rows = slice(None)
    raise ConvergenceFailure(
        f"lowest eigenvalue did not converge in {maxiter} steps at dim "
        f"{x0.size}", best=(theta, x.copy()))


def lowest_eigenpair(matrix, tol=1e-10, maxiter=None, v0=None):
    """Smallest eigenvalue and eigenvector of a Hermitian matrix: an
    array, a sparse matrix or a `ProductOperator` (`FactoredHamiltonian`).

    Every dim runs `_lobpcg`.  A real symmetric matrix with a real start
    runs in real arithmetic.  `v0` is the start vector, of the matrix's
    dtype; None starts from a fixed-seed random vector.  `maxiter` caps
    the LOBPCG steps, 10 * dim when None.  A start close to the ground
    state saves iterations but cannot change the result, because the
    returned pair is checked against the residual of its fresh H x.
    """
    dim = matrix.shape[0]
    if v0 is None:
        # fixed start vector keeps repeated runs bit-identical
        v0 = np.random.default_rng(1905).standard_normal(dim)
    value, vector, residual = _lobpcg(
        matrix, np.asarray(v0), tol, 10 * dim if maxiter is None else maxiter)
    if residual > 1e-7 * max(1.0, abs(value)):
        raise ConvergenceFailure(
            f"eigenpair residual {residual:.3e} too large at dim {dim}",
            best=(value, vector))
    return value, vector


@dataclass
class GroundStateRecord:
    """Energies at one nucleon number."""

    n: int
    eps: float
    dim: int
    e_quantum: float
    e_coherent: float
    gap: float


@dataclass
class SweepReport:
    """Sector ground-state energies against the classical minimum."""

    lambda_coupling: float
    e_classical: float
    records: list
    cap_shift: float
    z1_min: np.ndarray
    z2_min: np.ndarray


def _sector_hamiltonian(grid, params, n, meson_cap):
    """H on the n-nucleon sector, eps = lambda^2 / n, over the active
    standing-wave meson basis."""
    eps = params.charge ** 2 / n
    return FactoredHamiltonian(grid, params, eps, sector_basis(grid.n_sites, n),
                               active_meson_basis(grid, params, meson_cap))


def _ground_energy(ham, start):
    """Lowest eigenvalue of `ham`, with the iteration started at the
    coherent product vector `start`: by Theorem 2 it is close to the
    ground state."""
    if not np.issubdtype(ham.dtype, np.complexfloating):
        # A real operator takes the real part.  The minimiser returns a
        # real z1, and its meson field has real standing-wave amplitudes,
        # so the imaginary part is zero and dropping it loses nothing.
        # The copy lets the complex vector go before the solve when the
        # caller keeps no reference to it, as in the cap-shift solve, the
        # largest.
        start = start.real.copy()
    return lowest_eigenpair(ham, v0=start)[0]


def theorem2_sweep(grid, params, n_values, meson_cap, cap_check_shift=3,
                   seed=0):
    """Ground-state energies over a range of nucleon numbers n at fixed
    lambda = params.charge, against the constrained classical minimum.

    Each record holds the sector ground energy, the coherent upper bound
    at the classical minimiser, and the distance to the classical
    minimum; cap_shift reports how much the largest-n energy moves when
    the meson cap is raised by cap_check_shift.  Every sector solve
    starts from the coherent product state at the classical minimiser
    (its real part when the operator is real), the same vector whose
    Rayleigh quotient is the coherent bound.
    """
    if not all(np.isfinite(n) and n == int(n) and n > 0 for n in n_values):
        raise ValueError("nucleon numbers must be positive integers")
    n_values = [int(n) for n in n_values]
    best = minimize_constrained(grid, params, seed=seed)
    e_classical = best.energy
    records = []
    for n in n_values:
        ham = _sector_hamiltonian(grid, params, n, meson_cap)
        start, _ = coherent_product_state(ham, best.z1, best.z2)
        e_coherent = float(np.vdot(start, ham @ start).real)
        e_quantum = _ground_energy(ham, start)
        records.append(GroundStateRecord(
            n=n, eps=ham.eps, dim=ham.shape[0], e_quantum=e_quantum,
            e_coherent=e_coherent, gap=abs(e_quantum - e_classical)))
    ham = _sector_hamiltonian(grid, params, max(n_values),
                              meson_cap + cap_check_shift)
    deeper = _ground_energy(ham,
                            coherent_product_state(ham, best.z1, best.z2)[0])
    cap_shift = abs(deeper - records[n_values.index(max(n_values))].e_quantum)
    return SweepReport(lambda_coupling=params.charge,
                       e_classical=e_classical, records=records,
                       cap_shift=cap_shift, z1_min=best.z1, z2_min=best.z2)
