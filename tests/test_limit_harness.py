"""Quantum-to-classical convergence of characteristic functions."""

from collections import Counter

import numpy as np
import pytest

from nelson_lab import limit_harness
from nelson_lab.classical_dynamics import FieldState
from nelson_lab.discretization import (
    Grid, ModelParams, chi_sharp_band, coupling_weight, covered_modes,
    potential_preset)
from nelson_lab.fock_space import truncated_basis
from nelson_lab.limit_harness import (_bases_for, default_xi_panel,
                                      theorem1_sweep)
from nelson_lab.quantum_dynamics import FactoredHamiltonian


def limit_system(chi_amp=0.25):
    grid = Grid(4, np.pi)
    params = ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, chi_amp, 1.0, 1.0))
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    if modes.size == 0:
        modes = np.array([1, 3])
    z1 = 0.15 * np.array([1.0, 0.6 + 0.4j, -0.5, 0.3j])
    z2 = np.zeros(4, dtype=complex)
    z2[modes] = [0.1 - 0.05j, 0.07j]
    return grid, params, FieldState(z1, z2), modes


def test_char_fn_errors_decrease_linearly_with_eps():
    grid, params, z0, _ = limit_system()
    report = theorem1_sweep(grid, params, z0, [0.4, 0.2, 0.1], [0.25, 0.5])
    assert report.errors.shape == (3, 2, 6)
    assert np.all(report.errors > 0)
    # smaller eps is closer to the classical value, for every time and
    # test function, at a rate consistent with first order in eps
    assert np.all(np.diff(report.errors, axis=0) < 0)
    ratios = report.errors[:-1] / report.errors[1:]
    assert np.all(ratios >= 1.6)
    assert np.all(ratios <= 2.5)
    assert report.errors[-1].max() <= 0.05
    assert all(d <= 1e-3 for d in report.deficits)
    assert all(dim > 0 for dim in report.dims)


def test_variance_corrected_target_is_much_closer():
    # the evolved state keeps the coherent Gaussian variance: correcting
    # the classical target by exp(-eps |xi|^2 / 4) shrinks the error by
    # more than an order of magnitude
    grid, params, z0, modes = limit_system()
    panel = default_xi_panel(grid, modes)
    report = theorem1_sweep(grid, params, z0, [0.4], [0.5], xi_panel=panel)
    for s in report.samples:
        xi1, xi2 = panel[s.xi_index]
        q = grid.norm_x(xi1) ** 2 + grid.norm_k(xi2) ** 2
        corrected = abs(s.value - s.target * np.exp(-s.eps * q / 4.0))
        assert corrected <= s.error / 20.0


def test_free_evolution_error_is_time_independent():
    # without coupling the evolution maps coherent states to coherent
    # states: the distance to the classical value is pure variance
    # factor, identical at every time
    grid, params, z0, modes = limit_system(chi_amp=0.0)
    panel = default_xi_panel(grid, modes)
    report = theorem1_sweep(grid, params, z0, [0.2], [0.25, 0.5, 0.75],
                            xi_panel=panel)
    spread = report.errors[0].max(axis=0) - report.errors[0].min(axis=0)
    assert np.all(spread <= 1e-12)
    for s in report.samples:
        xi1, xi2 = panel[s.xi_index]
        q = grid.norm_x(xi1) ** 2 + grid.norm_k(xi2) ** 2
        exact = s.target * np.exp(-s.eps * q / 4.0)
        assert abs(s.value - exact) <= 1e-6


def test_ehrenfest_moments_track_classical_fields():
    grid, params, z0, _ = limit_system()
    report = theorem1_sweep(grid, params, z0, [0.4, 0.2, 0.1], [0.25, 0.5])
    assert report.moment_errors.shape == (3, 3)
    for row in report.moment_errors:
        assert row[0] <= 1e-5  # truncation only at t = 0
        assert row.max() <= 1e-2
    terminal = report.moment_errors[:, -1]
    assert terminal[0] > terminal[1] > terminal[2]
    assert 1.6 <= terminal[0] / terminal[1] <= 2.5
    assert 1.6 <= terminal[1] / terminal[2] <= 2.5


def test_ehrenfest_free_case_stays_coherent():
    grid, params, z0, _ = limit_system(chi_amp=0.0)
    report = theorem1_sweep(grid, params, z0, [0.2], [0.5, 1.0])
    assert report.moment_errors.max() <= 1e-6


def test_panel_and_input_validation():
    grid, params, z0, modes = limit_system()
    panel = default_xi_panel(grid, modes)
    assert len(panel) == 6
    for xi1, xi2 in panel:
        assert xi1.shape == (4,) and xi2.shape == (4,)
        off = np.setdiff1d(np.arange(4), modes)
        assert np.all(xi2[off] == 0)
    with pytest.raises(ValueError):
        theorem1_sweep(grid, params, z0, [0.2], [0.5, 0.25])
    with pytest.raises(ValueError):
        theorem1_sweep(grid, params, z0, [0.2], [-0.5])


def test_sweep_builds_each_lowering_table_once(lowering_builds):
    # each basis of a rung builds its lowering table once: the coupling,
    # the moments and every Weyl value of the rung re-weight it
    grid, params, z0, modes = limit_system()
    eps_values = (0.4, 0.2)
    theorem1_sweep(grid, params, z0, eps_values, [0.25])
    assert len({id(basis) for basis in lowering_builds}) == \
        len(lowering_builds) == 2 * len(eps_values)
    assert Counter((basis.n_modes, basis.modes is None)
                   for basis in lowering_builds) == Counter(
        {(grid.n_sites, True): 2, (modes.size, False): 2})


def test_t1_hamiltonian_is_real():
    # the standing-wave meson basis makes the coupling real for a chi
    # even in k, so the propagator runs in real arithmetic
    grid, params, z0, _ = limit_system()
    ham = FactoredHamiltonian(grid, params, 0.2,
                              *_bases_for(grid, params, 0.2, z0, 1e-4))
    assert ham.meson_basis.standing
    assert ham.dtype == np.float64


def test_plane_and_standing_meson_frames_agree(monkeypatch):
    grid, params, z0, _ = limit_system()
    args = (grid, params, z0, (0.4, 0.2), (0.25, 0.5))
    standing = theorem1_sweep(*args)

    def plane_basis(grid, params, cap, *fields):
        modes = covered_modes(grid, params, *fields)
        return truncated_basis(modes.size, cap, modes=modes)

    monkeypatch.setattr(limit_harness, "active_meson_basis", plane_basis)
    plane = theorem1_sweep(*args)
    assert standing.dims == plane.dims and standing.caps == plane.caps
    assert np.max(np.abs(standing.moment_errors - plane.moment_errors)) \
        <= 1e-12
    assert max(abs(a.value - b.value) for a, b
               in zip(standing.samples, plane.samples)) <= 1e-12
    assert np.max(np.abs(standing.errors - plane.errors)) <= 1e-12
