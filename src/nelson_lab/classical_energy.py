"""Classical energy functional, meson elimination, and constrained minimum.

The classical system is a pair z = (z1, z2): z1 sampled on grid.x with
|z1|_x held at lambda, z2 sampled on grid.k.  The energy is

    h(z) = <z1, h1 z1>_x + sum_m dk omega_m |z2_m|^2
           + int A(x; z2) |z1(x)|^2 dx,

where A(x; z2) = 2 Re sum_m dk (chi/sqrt(omega))_m z2_m e^{i k_m x} is the
(real) meson field profile seen by the nucleons.

Minimising h over z2 at fixed z1 is explicit (eliminate_meson); the
remaining functional of z1 alone is minimised over the sphere |z1|_x =
lambda by the Hartree fixed point: z1 becomes the lowest eigenvector of
the Hartree operator h_H = h1 + diag(A(.; z2*(z1))), scaled to charge
lambda.  The reduced energy is concave in the density matrix |z1><z1|
and h_H is its gradient, so every step lowers it and needs no damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .discretization import Grid, ModelParams, coupling_weight, dispersion, one_body_hamiltonian
from .errors import MaxIterationsExceeded


@dataclass
class EnergyBreakdown:
    """Classical energy split into its three contributions."""

    one_body: float
    field: float
    interaction: float

    @property
    def total(self) -> float:
        return self.one_body + self.field + self.interaction


@dataclass
class MinimizationResult:
    """Outcome of the constrained energy minimisation."""

    z1: np.ndarray
    z2: np.ndarray
    energy: float
    gradient_norm: float
    iterations: int
    converged: bool
    start_energies: np.ndarray  # best energy reached from each start
    history: np.ndarray  # accepted energies along the winning run


def density_fourier(grid: Grid, z1: np.ndarray) -> np.ndarray:
    """Fourier transform of the nucleon density: rho_m = sum_j dx
    e^{-i k_m x_j} |z1_j|^2."""
    return grid.dx * (grid.phases @ (np.abs(z1) ** 2))


def field_profile(grid: Grid, params: ModelParams, z2: np.ndarray) -> np.ndarray:
    """Real meson field profile A(x_j; z2) seen by the nucleons."""
    weight = coupling_weight(grid, params)
    return 2.0 * np.real((grid.dk * weight * z2) @ np.conj(grid.phases))


def evaluate_h(grid: Grid, params: ModelParams, state) -> EnergyBreakdown:
    """Classical energy of a field state (anything with .z1/.z2 arrays)."""
    z1, z2 = np.asarray(state.z1), np.asarray(state.z2)
    h1 = one_body_hamiltonian(grid, params)
    omega = dispersion(grid.k, params.meson_mass)
    one_body = float(np.real(grid.inner_x(z1, h1 @ z1)))
    field = float(grid.dk * np.sum(omega * np.abs(z2) ** 2))
    prof = field_profile(grid, params, z2)
    interaction = float(grid.dx * np.sum(prof * np.abs(z1) ** 2))
    return EnergyBreakdown(one_body, field, interaction)


def eliminate_meson(grid: Grid, params: ModelParams, z1: np.ndarray) -> np.ndarray:
    """Minimiser of h over z2 at fixed z1:
    z2*_m = -chi_m rho_m / omega_m^{3/2}."""
    omega = dispersion(grid.k, params.meson_mass)
    weight = coupling_weight(grid, params)  # chi/sqrt(omega), 0 where chi=0
    return -weight * density_fourier(grid, z1) / omega


def _hartree(
    grid: Grid, params: ModelParams, z1: np.ndarray
) -> tuple[float, np.ndarray]:
    """Reduced energy at z1 and the real symmetric Hartree operator
    h_H = h1 + diag(A(.; z2*(z1)))."""
    h1 = one_body_hamiltonian(grid, params)
    omega = dispersion(grid.k, params.meson_mass)
    weight = coupling_weight(grid, params)
    rho = density_fourier(grid, z1)
    c2 = weight**2 / omega  # chi^2 / omega^2, 0 where chi=0
    value = float(np.real(grid.inner_x(z1, h1 @ z1)))
    value -= float(grid.dk * np.sum(c2 * np.abs(rho) ** 2))
    prof = -2.0 * np.real((grid.dk * c2 * rho) @ np.conj(grid.phases))
    return value, h1 + np.diag(prof)


def reduced_functional(
    grid: Grid, params: ModelParams, z1: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy after meson elimination, and its gradient.

    Value:  <z1, h1 z1>_x - sum_m dk (chi^2/omega^2) |rho_m|^2.
    The gradient g is defined by dE = 2 Re sum_j dx conj(dz1_j) g_j, i.e.
    g = h_H z1 = h1 z1 + A(.; z2*(z1)) z1.
    """
    value, h_hartree = _hartree(grid, params, z1)
    return value, h_hartree @ z1


def binding_lower_bound(grid: Grid, params: ModelParams) -> float:
    """Lower bound -lambda^4 |chi/omega|_k^2 on the reduced functional
    (valid whenever h1 >= 0, e.g. nonnegative potentials)."""
    omega = dispersion(grid.k, params.meson_mass)
    weight = coupling_weight(grid, params)
    return -params.charge**4 * float(grid.dk * np.sum(weight**2 / omega))


def _tangent_gradient(grid: Grid, z1: np.ndarray, grad: np.ndarray, lam: float):
    """Project the gradient onto the tangent space of the sphere |z1| = lam."""
    radial = np.real(grid.inner_x(z1, grad)) / lam**2
    return grad - radial * z1


def minimize_constrained(
    grid: Grid,
    params: ModelParams,
    seed: int = 0,
    n_starts: int = 3,
    max_iter: int = 5000,
    grad_tol: float = 1e-7,
) -> MinimizationResult:
    """Minimise the reduced functional over the sphere |z1|_x = lambda.

    Hartree fixed-point steps (z1 <- lambda/sqrt(dx) times the lowest
    eigenvector of h_H(z1)), restarted from n_starts random initial
    fields; the best run wins.  Convergence means the tangential gradient
    norm falls below grad_tol * max(1, |E|).  After a step z1 is real;
    the result's sign makes its site sum nonnegative.  Raises
    MaxIterationsExceeded (carrying the best iterate) if no start
    converges within max_iter steps.
    """
    lam = params.charge
    rng = np.random.default_rng(seed)
    g = grid.n_sites

    best = None  # (energy, z1, grad_norm, iters, converged, history)
    start_energies = []
    for _ in range(n_starts):
        z1 = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        z1 *= lam / grid.norm_x(z1)
        energy, h_hartree = _hartree(grid, params, z1)
        history = [energy]
        it = 0
        while True:
            tangent = _tangent_gradient(grid, z1, h_hartree @ z1, lam)
            tnorm = grid.norm_x(tangent)
            converged = tnorm <= grad_tol * max(1.0, abs(energy))
            if converged or it == max_iter:
                break
            it += 1
            vec = eigh(h_hartree, subset_by_index=[0, 0])[1][:, 0]
            z1 = (lam / np.sqrt(grid.dx)) * vec
            energy, h_hartree = _hartree(grid, params, z1)
            history.append(energy)
        start_energies.append(energy)
        if best is None or energy < best[0]:
            best = (energy, z1, tnorm, it, converged, np.array(history))

    energy, z1, tnorm, iters, converged, history = best
    if np.sum(z1).real < 0.0:
        z1 = -z1
    z2 = eliminate_meson(grid, params, z1)
    result = MinimizationResult(
        z1=z1,
        z2=z2,
        energy=energy,
        gradient_norm=tnorm,
        iterations=iters,
        converged=converged,
        start_energies=np.array(start_energies),
        history=history,
    )
    if not converged:
        raise MaxIterationsExceeded(
            f"Hartree iteration did not reach tolerance in {max_iter} steps "
            f"(best gradient norm {tnorm:.3e})",
            best=result,
        )
    return result
