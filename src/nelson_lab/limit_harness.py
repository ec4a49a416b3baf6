"""Convergence of the quantum dynamics onto the classical flow.

The interaction-picture characteristic function of the evolved coherent
state is compared with exp(i sqrt(2) Re <xi, z(t)>) evaluated on the
freely-pulled-back classical trajectory; the distance between the two
shrinks with eps.  Since exp(-itH0/eps) W(xi) exp(+itH0/eps) = W(xi_t)
with xi_t the freely evolved argument, it is <psi(t), W(xi_t) psi(t)>,
exact by normal ordering (`weyl_matrix_elements`).  First moments of the
field operators, read from the same evolved states, track the classical
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical_dynamics import flow
from .discretization import covered_modes
from .errors import TruncationInsufficient
from .fock_space import (_slot_field, ladder, occupation_cap,
                         truncated_basis)
from .quantum_dynamics import (FactoredHamiltonian, active_meson_basis,
                               coherent_product_state, free_weyl_argument,
                               propagate, weyl_matrix_elements)


def coherent_target(grid, xi1, xi2, z):
    """Classical-limit value exp(i sqrt(2) Re[<xi1,z1>_x + <xi2,z2>_k])."""
    overlap = (grid.inner_x(np.asarray(xi1, complex), z.z1)
               + grid.inner_k(np.asarray(xi2, complex), z.z2))
    return complex(np.exp(1j * np.sqrt(2.0) * overlap.real))


def default_xi_panel(grid, modes):
    """Six pinned test functions: nucleon-only, meson-only, and mixed."""
    g = grid.n_sites
    x = grid.x
    modes = np.asarray(modes)
    bump = np.exp(-x ** 2)
    wave = np.exp(1j * x) * (0.5 + 0.2 * np.cos(x))
    panel = []
    xi2 = np.zeros(g, dtype=complex)
    panel.append((0.5 * bump.astype(complex), xi2))
    panel.append((0.4 * wave, xi2.copy()))
    xi2_one = np.zeros(g, dtype=complex)
    xi2_one[modes[0]] = 0.5 - 0.3j
    panel.append((np.zeros(g, dtype=complex), xi2_one))
    xi2_all = np.zeros(g, dtype=complex)
    xi2_all[modes] = 0.4 * np.exp(1j * np.arange(modes.size))
    panel.append((np.zeros(g, dtype=complex), xi2_all))
    panel.append((0.3 * bump * np.exp(1j * x), 0.5 * xi2_one))
    panel.append((0.25 * wave.conj(), -0.4 * xi2_all))
    return panel


@dataclass
class CharFnSample:
    """One characteristic-function comparison point."""

    eps: float
    t: float
    xi_index: int
    value: complex
    target: complex
    error: float


@dataclass
class Theorem1Report:
    """Characteristic-function errors over an eps/time/test-function panel,
    and the distance of the first moments to the classical fields."""

    eps_values: tuple
    t_values: tuple
    n_xi: int
    errors: np.ndarray  # (n_eps, n_t, n_xi)
    moment_errors: np.ndarray  # (n_eps, n_t + 1), t = 0 first
    samples: list = field(repr=False)
    dims: tuple = ()
    caps: tuple = ()
    deficits: tuple = ()


def _bases_for(grid, params, eps, z0, tail_budget):
    """Nucleon basis over the sites and standing-wave meson basis, with
    caps from the coherent occupations of z0."""
    mean_n = grid.norm_x(z0.z1) ** 2 / eps
    mean_m = grid.norm_k(z0.z2) ** 2 / eps
    # one extra rung of headroom for occupation pumped by the coupling
    cap_n = occupation_cap(mean_n, tail_budget) + 2
    cap_m = occupation_cap(mean_m, tail_budget) + 2
    return (truncated_basis(grid.n_sites, cap_n),
            active_meson_basis(grid, params, cap_m, z0.z2))


def _moment_errors(ham, vectors, traj):
    """Quadrature distance of (<psi(x)>, <a>) in each vector to the
    classical fields of `traj` at the same index.  The meson moments are
    read at the basis slots and compared with the slot amplitudes of z2
    (`_slot_field`); the standing-wave rotation is unitary, so the
    distance is that of the plane-wave moments."""
    grid, dims, nb, mb = ham.grid, ham.dims, ham.nucleon_basis, ham.meson_basis
    sites = [ladder(nb, j, ham.eps) for j in range(nb.n_modes)]
    mode_mats = [ladder(mb, p, ham.eps).T.toarray() for p in range(mb.n_modes)]
    z2 = np.array([_slot_field(grid, mb, z, "field")[1] for z in traj.z2])
    q1 = np.zeros((len(vectors), grid.n_sites), dtype=complex)
    q2 = np.zeros((len(vectors), mb.n_modes), dtype=complex)
    for i, vec in enumerate(vectors):
        mat = vec.reshape(dims)
        for j, op in enumerate(sites):
            q1[i, j] = np.vdot(mat, op @ mat) / np.sqrt(grid.dx)
        for p, op in enumerate(mode_mats):
            q2[i, p] = np.vdot(mat, mat @ op) / np.sqrt(grid.dk)
    return np.sqrt(grid.dx * np.sum(np.abs(q1 - traj.z1) ** 2, axis=1)
                   + grid.dk * np.sum(np.abs(q2 - z2) ** 2, axis=1))


def theorem1_sweep(grid, params, z0, eps_values, t_values, xi_panel=None,
                   tail_budget=1e-4, classical_dt=1e-3):
    """Characteristic-function distance to the classical limit.

    For each eps the coherent state at z0 is evolved, and at each t
    <W(xi_t)> with xi_t = free_weyl_argument(xi, t) is tested against
    `coherent_target(xi_t, z(t))` on the whole panel, computed once per
    (t, xi); each value is one exact `weyl_matrix_elements` series of
    the state.  The same states, and the coherent start at t = 0, give
    `moment_errors`: the distance of <psi(x)>, <a(k)> to the classical
    fields at time t.
    """
    t_values = tuple(float(t) for t in t_values)
    if any(t <= 0 for t in t_values) or any(
            b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values must be positive and strictly increasing")
    eps_values = tuple(float(e) for e in eps_values)
    traj = flow(grid, params, z0, np.concatenate([[0.0], t_values]),
                classical_dt)
    if xi_panel is None:
        xi_panel = default_xi_panel(grid, covered_modes(grid, params, z0.z2))
    evolved_panels = [[free_weyl_argument(grid, params, xi1, xi2, t)
                       for xi1, xi2 in xi_panel] for t in t_values]
    # <xi, e^{itH0} z(t)> = <xi_t, z(t)>: the free flow is unitary
    targets = [[coherent_target(grid, *xi_t, traj.state(b + 1))
                for xi_t in panel] for b, panel in enumerate(evolved_panels)]
    samples, dims, caps, deficits = [], [], [], []
    errors = np.zeros((len(eps_values), len(t_values), len(xi_panel)))
    moment_errors = np.zeros((len(eps_values), len(t_values) + 1))
    for a, eps in enumerate(eps_values):
        nb, mb = _bases_for(grid, params, eps, z0, tail_budget)
        ham = FactoredHamiltonian(grid, params, eps, nb, mb)
        psi0, deficit = coherent_product_state(ham, z0.z1, z0.z2)
        if deficit > 10.0 * tail_budget:
            raise TruncationInsufficient(
                f"coherent tail {deficit:.3e} at eps={eps}", deficit=deficit)
        dims.append(ham.dim)
        caps.append((nb.cap, mb.cap))
        deficits.append(deficit)
        snapshots = propagate(ham, psi0, list(t_values))
        moment_errors[a] = _moment_errors(ham, [psi0, *snapshots], traj)
        for b, (t, snap) in enumerate(zip(t_values, snapshots)):
            for c, (xi_t, target) in enumerate(zip(evolved_panels[b],
                                                   targets[b])):
                value = complex(weyl_matrix_elements(ham, *xi_t, snap, ())[0])
                err = abs(value - target)
                errors[a, b, c] = err
                samples.append(CharFnSample(eps=eps, t=t, xi_index=c,
                                            value=value, target=target,
                                            error=err))
    return Theorem1Report(eps_values=eps_values, t_values=t_values,
                          n_xi=len(xi_panel), errors=errors, samples=samples,
                          moment_errors=moment_errors, dims=tuple(dims),
                          caps=tuple(caps), deficits=tuple(deficits))
