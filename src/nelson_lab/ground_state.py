"""Ground-state energies of the coupled system at fixed nucleon number.

With n nucleons, eps = lambda^2 / n, the lowest eigenvalue of H on the
n-nucleon sector approaches the minimum of the classical energy over
|z1|_x = lambda as n grows; coherent product states at the classical
minimiser give variational upper bounds along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .classical_energy import minimize_constrained
from .errors import ConvergenceFailure
from .fock_space import sector_basis
from .quantum_dynamics import (FactoredHamiltonian, active_meson_basis,
                               coherent_product_state)


def lowest_eigenpair(matrix, method="auto", tol=1e-10, dense_cutoff=1200,
                     maxiter=None, v0=None):
    """Smallest eigenvalue and eigenvector of a Hermitian matrix: an
    array, a sparse matrix or a `FactoredHamiltonian`.

    method "dense" runs a full factorisation, "lanczos" the implicitly
    restarted iteration (falling back to dense when the matrix is too
    small for it), "auto" picks by size.  A real symmetric matrix gets
    the real Lanczos iteration.  `v0` is the Lanczos start vector, of the
    matrix's dtype; None starts from a fixed-seed random vector.  A start
    close to the ground state saves iterations but cannot change the
    result, because the returned pair is checked against its residual.
    """
    dim = matrix.shape[0]
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if dim <= dense_cutoff else "lanczos"
    if method == "lanczos" and dim < 3:
        method = "dense"
    if method == "dense":
        dense = (matrix.toarray() if hasattr(matrix, "toarray")
                 else np.asarray(matrix))
        vals, vecs = eigh(dense)
        value, vector = float(vals[0]), vecs[:, 0]
    else:
        if v0 is None:
            # fixed start vector keeps repeated runs bit-identical
            v0 = np.random.default_rng(1905).standard_normal(dim)
        try:
            vals, vecs = eigsh(matrix, k=1, which="SA", tol=tol,
                               maxiter=maxiter, v0=v0)
        except ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"lowest eigenvalue did not converge at dim {dim}") from exc
        value, vector = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(matrix @ vector - value * vector))
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


def _ground_energy(ham, start, method):
    """Lowest eigenvalue of `ham`, with the Lanczos iteration started at
    the coherent product vector `start`: by Theorem 2 it is close to the
    ground state."""
    if not np.issubdtype(ham.dtype, np.complexfloating):
        # A real operator takes the real part.  The minimiser returns a
        # real z1, and its meson field has real standing-wave amplitudes,
        # so the imaginary part is zero and dropping it loses nothing.
        # The copy lets the complex vector go before the solve when the
        # caller keeps no reference to it, as in the cap-shift solve, the
        # largest.
        start = start.real.copy()
    return lowest_eigenpair(ham, method=method, v0=start)[0]


def theorem2_sweep(grid, params, n_values, meson_cap, method="auto",
                   cap_check_shift=3, seed=0):
    """Ground-state energies over a range of nucleon numbers n at fixed
    lambda = params.charge, against the constrained classical minimum.

    Each record holds the sector ground energy, the coherent upper bound
    at the classical minimiser, and the distance to the classical
    minimum; cap_shift reports how much the largest-n energy moves when
    the meson cap is raised by cap_check_shift.  Every Lanczos solve
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
        e_quantum = _ground_energy(ham, start, method)
        records.append(GroundStateRecord(
            n=n, eps=ham.eps, dim=ham.shape[0], e_quantum=e_quantum,
            e_coherent=e_coherent, gap=abs(e_quantum - e_classical)))
    ham = _sector_hamiltonian(grid, params, max(n_values),
                              meson_cap + cap_check_shift)
    deeper = _ground_energy(
        ham, coherent_product_state(ham, best.z1, best.z2)[0], method)
    cap_shift = abs(deeper - records[n_values.index(max(n_values))].e_quantum)
    return SweepReport(lambda_coupling=params.charge,
                       e_classical=e_classical, records=records,
                       cap_shift=cap_shift, z1_min=best.z1, z2_min=best.z2)
