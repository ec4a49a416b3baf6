"""Coupled field equations and their splitting integrator.

State z = (z1, z2): nucleon field on grid.x, meson field on grid.k.  The
equations of motion are

    i dz1/dt = h1 z1 + A(x; z2) z1,
    i dz2/dt = omega z2 + (chi/sqrt(omega)) rho(z1),

with A the real field profile and rho the density transform (see
classical_energy).  The flow is integrated by Strang splitting

    S(dt) = free(dt/2) o couple(dt) o free(dt/2),

where the free half-steps are exact (eigenbasis of h1, diagonal phases for
z2) and the coupling step is *also* exact: |z1| is pointwise conserved by
the coupling subflow, so rho is constant, z2 moves linearly in t, and the
accumulated z1 phase equals dt times the profile of the z2 midpoint.  The
composition is second order in dt overall and conserves |z1|_x to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .classical_energy import EnergyBreakdown, density_fourier, evaluate_h
from .discretization import Grid, ModelParams, coupling_weight, dispersion, one_body_hamiltonian
from .errors import StepSizeRejected


@dataclass
class FieldState:
    """Classical field pair (z1 on sites, z2 on modes)."""

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        self.z1 = np.asarray(self.z1, dtype=complex)
        self.z2 = np.asarray(self.z2, dtype=complex)

    def copy(self) -> "FieldState":
        return FieldState(self.z1.copy(), self.z2.copy())


@dataclass
class Trajectory:
    """Sampled flow: state i is the field pair at times[i]."""

    times: np.ndarray
    z1: np.ndarray  # (n_times, n_sites)
    z2: np.ndarray  # (n_times, n_sites)

    def state(self, i: int) -> FieldState:
        return FieldState(self.z1[i], self.z2[i])


def free_flow(grid: Grid, params: ModelParams, state: FieldState, t: float) -> FieldState:
    """Exact uncoupled evolution: z1 by e^{-i t h1}, z2 by e^{-i t omega}."""
    h1 = one_body_hamiltonian(grid, params)
    evals, evecs = eigh(h1)
    z1 = evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ state.z1))
    omega = dispersion(grid.k, params.meson_mass)
    z2 = np.exp(-1j * t * omega) * state.z2
    return FieldState(z1, z2)


def _coupling_step(grid, weight, z1, z2, dt):
    """Exact coupling substep (rho frozen, z2 linear drift, midpoint phase)."""
    rho = density_fourier(grid, z1)
    drift = -1j * dt * weight * rho
    z2_mid = z2 + 0.5 * drift
    prof = 2.0 * np.real((grid.dk * weight * z2_mid) @ np.conj(grid.phases))
    return np.exp(-1j * dt * prof) * z1, z2 + drift


def flow(
    grid: Grid,
    params: ModelParams,
    state: FieldState,
    times: np.ndarray,
    dt: float,
) -> Trajectory:
    """Integrate the coupled equations, sampling the state at `times`.

    `state` is the field pair at times[0].  Each interval is covered by
    ceil(interval/dt) equal Strang steps, so samples land exactly on the
    requested times.  Raises StepSizeRejected on nonpositive dt, nonfinite
    iterates, or loss of nucleon charge conservation.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be a strictly increasing 1-d array")
    if dt <= 0.0:
        raise StepSizeRejected(f"dt must be positive, got {dt}")

    h1 = one_body_hamiltonian(grid, params)
    evals, evecs = eigh(h1)
    omega = dispersion(grid.k, params.meson_mass)
    weight = coupling_weight(grid, params)

    z1 = np.array(state.z1, dtype=complex)
    z2 = np.array(state.z2, dtype=complex)
    charge0 = grid.norm_x(z1)

    out1 = np.empty((len(times), grid.n_sites), dtype=complex)
    out2 = np.empty((len(times), grid.n_sites), dtype=complex)
    out1[0], out2[0] = z1, z2

    half_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(1, len(times)):
        interval = times[i] - times[i - 1]
        n_steps = max(1, int(np.ceil(interval / dt - 1e-12)))
        h = interval / n_steps
        if h not in half_cache:
            u_half = (evecs * np.exp(-0.5j * h * evals)) @ evecs.conj().T
            phase_half = np.exp(-0.5j * h * omega)
            half_cache[h] = (u_half, phase_half)
        u_half, phase_half = half_cache[h]
        for _ in range(n_steps):
            z1 = u_half @ z1
            z2 = phase_half * z2
            z1, z2 = _coupling_step(grid, weight, z1, z2, h)
            z1 = u_half @ z1
            z2 = phase_half * z2
        if not (np.all(np.isfinite(z1.view(float))) and np.all(np.isfinite(z2.view(float)))):
            raise StepSizeRejected(f"nonfinite state at t={times[i]:.6g} with dt={dt}")
        if charge0 > 0.0 and abs(grid.norm_x(z1) - charge0) > 1e-6 * charge0:
            raise StepSizeRejected(
                f"charge conservation lost at t={times[i]:.6g} with dt={dt}"
            )
        out1[i], out2[i] = z1, z2
    return Trajectory(times=times.copy(), z1=out1, z2=out2)


def classical_energy_along(
    grid: Grid, params: ModelParams, traj: Trajectory
) -> list[EnergyBreakdown]:
    """Energy breakdown at every sampled time of a trajectory."""
    return [evaluate_h(grid, params, traj.state(i)) for i in range(len(traj.times))]
