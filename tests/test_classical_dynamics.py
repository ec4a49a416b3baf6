"""Free flow and Strang integrator invariants."""

import numpy as np
import numpy.testing as npt
import pytest

from nelson_lab.classical_dynamics import (
    FieldState,
    classical_energy_along,
    flow,
    free_flow,
)
from nelson_lab.classical_energy import evaluate_h
from nelson_lab.discretization import (
    Grid,
    ModelParams,
    chi_gaussian,
    dispersion,
    potential_preset,
)
from nelson_lab.errors import StepSizeRejected


def make_system(n_sites=16, half_length=4.0, amp=0.3):
    grid = Grid(n_sites, half_length)
    params = ModelParams(
        mass=1.0,
        meson_mass=1.0,
        charge=1.0,
        potential=potential_preset(grid, "harmonic", 0.5),
        chi=chi_gaussian(grid, amp, 1.5),
    )
    return grid, params


def bump_state(grid, rng=None, z2_scale=0.2):
    z1 = np.exp(-((grid.x - 0.5) ** 2)) * (1.0 + 0.2j)
    z1 /= grid.norm_x(z1)
    if rng is None:
        z2 = z2_scale * np.exp(-grid.k**2) * (1.0 - 0.5j)
    else:
        g = grid.n_sites
        z2 = z2_scale * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    return FieldState(z1, z2)


class TestFreeFlow:
    def test_plane_wave_phase(self):
        grid, params = make_system()
        params.potential = np.zeros(grid.n_sites)
        m = 2
        z1 = np.exp(1j * grid.k[m] * grid.x)
        st = free_flow(grid, params, FieldState(z1, np.zeros(grid.n_sites)), 0.7)
        want = np.exp(-1j * 0.7 * grid.k[m] ** 2 / 2) * z1
        npt.assert_allclose(st.z1, want, atol=1e-12)

    def test_meson_phases(self):
        grid, params = make_system()
        rng = np.random.default_rng(0)
        st0 = bump_state(grid, rng)
        st = free_flow(grid, params, st0, 1.3)
        omega = dispersion(grid.k, params.meson_mass)
        npt.assert_allclose(st.z2, np.exp(-1j * 1.3 * omega) * st0.z2, atol=1e-12)

    def test_conserves_energy_and_norms(self):
        grid, params = make_system()
        st0 = bump_state(grid, np.random.default_rng(1))
        st = free_flow(grid, params, st0, 2.1)
        assert grid.norm_x(st.z1) == pytest.approx(grid.norm_x(st0.z1), rel=1e-12)
        assert grid.norm_k(st.z2) == pytest.approx(grid.norm_k(st0.z2), rel=1e-12)
        params0 = ModelParams(
            mass=params.mass,
            meson_mass=params.meson_mass,
            charge=params.charge,
            potential=params.potential,
            chi=np.zeros(grid.n_sites),
        )
        e0 = evaluate_h(grid, params0, st0).total
        e1 = evaluate_h(grid, params0, st).total
        assert e1 == pytest.approx(e0, rel=1e-12)


class TestFlow:
    def test_charge_conserved_to_machine_precision(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(4))
        traj = flow(grid, params, st, np.linspace(0.0, 2.0, 9), dt=1e-2)
        charges = [grid.norm_x(traj.z1[i]) for i in range(9)]
        npt.assert_allclose(charges, charges[0], rtol=1e-12)

    def test_energy_drift_small(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(5))
        traj = flow(grid, params, st, np.linspace(0.0, 1.0, 5), dt=1e-3)
        energies = np.array([b.total for b in classical_energy_along(grid, params, traj)])
        assert np.max(np.abs(energies - energies[0])) <= 1e-7 * max(1.0, abs(energies[0]))

    def test_second_order_convergence(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(6))
        t = np.array([0.0, 0.5])

        def endpoint(dt):
            tr = flow(grid, params, st, t, dt=dt)
            return np.concatenate([tr.z1[-1], tr.z2[-1]])

        ref = endpoint(0.5 / 512)
        e1 = np.linalg.norm(endpoint(0.02) - ref)
        e2 = np.linalg.norm(endpoint(0.01) - ref)
        assert 3.0 <= e1 / e2 <= 5.0

    def test_composition(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(7))
        whole = flow(grid, params, st, np.array([0.0, 1.0, 2.0]), dt=1e-2)
        first = flow(grid, params, st, np.array([0.0, 1.0]), dt=1e-2)
        second = flow(grid, params, first.state(1), np.array([1.0, 2.0]), dt=1e-2)
        npt.assert_allclose(second.z1[-1], whole.z1[-1], atol=1e-12)
        npt.assert_allclose(second.z2[-1], whole.z2[-1], atol=1e-12)

    def test_gauge_covariance(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(8))
        theta = 0.9
        rotated = FieldState(np.exp(1j * theta) * st.z1, st.z2.copy())
        t = np.array([0.0, 0.8])
        a = flow(grid, params, st, t, dt=5e-3)
        b = flow(grid, params, rotated, t, dt=5e-3)
        npt.assert_allclose(b.z1[-1], np.exp(1j * theta) * a.z1[-1], atol=1e-12)
        npt.assert_allclose(b.z2[-1], a.z2[-1], atol=1e-12)

    def test_uncoupled_flow_matches_free_flow(self):
        grid, params = make_system(amp=0.0)
        st = bump_state(grid, np.random.default_rng(9))
        traj = flow(grid, params, st, np.array([0.0, 1.5]), dt=1e-2)
        exact = free_flow(grid, params, st, 1.5)
        npt.assert_allclose(traj.z1[-1], exact.z1, atol=1e-10)
        npt.assert_allclose(traj.z2[-1], exact.z2, atol=1e-12)

    def test_rejects_bad_steps(self):
        grid, params = make_system()
        st = bump_state(grid, np.random.default_rng(10))
        with pytest.raises(StepSizeRejected):
            flow(grid, params, st, np.array([0.0, 1.0]), dt=0.0)
        with pytest.raises(ValueError):
            flow(grid, params, st, np.array([1.0, 0.5]), dt=1e-2)
