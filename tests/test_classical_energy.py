"""Energy functional, meson elimination, reduced functional, minimiser."""

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from nelson_lab.classical_dynamics import FieldState
from nelson_lab.classical_energy import (
    binding_lower_bound,
    density_fourier,
    eliminate_meson,
    evaluate_h,
    field_profile,
    minimize_constrained,
    reduced_functional,
)
from nelson_lab.config import load_config
from nelson_lab.discretization import (
    Grid,
    ModelParams,
    chi_gaussian,
    chi_sharp_band,
    coupling_weight,
    dispersion,
    one_body_hamiltonian,
    potential_preset,
)
from nelson_lab.errors import MaxIterationsExceeded

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def tiny_instance():
    """G=4 grid with two coupled modes (|k| = 1) and a harmonic trap."""
    grid = Grid(4, np.pi)
    params = ModelParams(
        mass=1.0,
        meson_mass=1.0,
        charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, 0.5, 1.0, 1.0),
    )
    return grid, params


def strong_instance():
    """G=16 grid with a strong Gaussian coupling: random starts end in
    distinct local minima."""
    grid = Grid(16, 2.0 * np.pi)
    params = ModelParams(
        mass=1.0,
        meson_mass=1.0,
        charge=1.0,
        potential=potential_preset(grid, "harmonic", 0.5),
        chi=chi_gaussian(grid, 4.0, 2.0),
    )
    return grid, params


def random_state(grid, rng, scale1=1.0, scale2=1.0):
    g = grid.n_sites
    z1 = scale1 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    z2 = scale2 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    return FieldState(z1, z2)


class TestEvaluate:
    def test_density_fourier_oracle(self):
        grid, _ = tiny_instance()
        rng = np.random.default_rng(0)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = density_fourier(grid, z1)
        for m in range(4):
            want = grid.dx * np.sum(np.exp(-1j * grid.k[m] * grid.x) * np.abs(z1) ** 2)
            assert rho[m] == pytest.approx(want, abs=1e-13)

    def test_profile_is_real(self):
        grid, params = tiny_instance()
        rng = np.random.default_rng(1)
        z2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        prof = field_profile(grid, params, z2)
        assert prof.dtype == np.float64

    def test_interaction_two_routes_agree(self):
        # position-space profile route vs momentum-space density route
        grid, params = tiny_instance()
        rng = np.random.default_rng(2)
        st = random_state(grid, rng)
        bd = evaluate_h(grid, params, st)
        w = coupling_weight(grid, params)
        rho = density_fourier(grid, st.z1)
        momentum_route = 2.0 * np.real(
            np.sum(grid.dk * w * st.z2 * np.conj(rho))
        )
        assert bd.interaction == pytest.approx(momentum_route, abs=1e-12)

    def test_total_is_sum(self):
        grid, params = tiny_instance()
        st = random_state(grid, np.random.default_rng(3))
        bd = evaluate_h(grid, params, st)
        assert bd.total == pytest.approx(bd.one_body + bd.field + bd.interaction)

    def test_decoupled_energy(self):
        grid, params = tiny_instance()
        params.chi = np.zeros(4)
        st = random_state(grid, np.random.default_rng(4))
        bd = evaluate_h(grid, params, st)
        assert bd.interaction == 0.0
        omega = dispersion(grid.k, params.meson_mass)
        want = grid.dk * np.sum(omega * np.abs(st.z2) ** 2)
        assert bd.field == pytest.approx(want, rel=1e-13)


class TestEliminateMeson:
    def test_closed_form(self):
        grid, params = tiny_instance()
        rng = np.random.default_rng(5)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z2s = eliminate_meson(grid, params, z1)
        omega = dispersion(grid.k, params.meson_mass)
        rho = density_fourier(grid, z1)
        want = -params.chi * rho / omega**1.5
        npt.assert_allclose(z2s, want, atol=1e-13)

    def test_is_a_minimum_over_z2(self):
        grid, params = tiny_instance()
        rng = np.random.default_rng(6)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z2s = eliminate_meson(grid, params, z1)
        e0 = evaluate_h(grid, params, FieldState(z1, z2s)).total
        for _ in range(50):
            dz = 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            e = evaluate_h(grid, params, FieldState(z1, z2s + dz)).total
            assert e >= e0 - 1e-12

    def test_reduced_value_matches_full_energy(self):
        grid, params = tiny_instance()
        rng = np.random.default_rng(7)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val, _ = reduced_functional(grid, params, z1)
        full = evaluate_h(grid, params, FieldState(z1, eliminate_meson(grid, params, z1)))
        assert val == pytest.approx(full.total, rel=1e-12)


class TestReducedGradient:
    def test_gradient_matches_finite_differences(self):
        grid, params = tiny_instance()
        rng = np.random.default_rng(8)
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        _, grad = reduced_functional(grid, params, z1)
        h = 1e-6
        for _ in range(10):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ep, _ = reduced_functional(grid, params, z1 + h * d)
            em, _ = reduced_functional(grid, params, z1 - h * d)
            fd = (ep - em) / (2 * h)
            analytic = 2.0 * np.real(grid.dx * np.sum(np.conj(d) * grad))
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-10)


class TestMinimizer:
    def test_converges_and_respects_invariants(self):
        grid, params = tiny_instance()
        res = minimize_constrained(grid, params, seed=123)
        assert res.converged
        assert grid.norm_x(res.z1) == pytest.approx(params.charge, rel=1e-12)
        # the minimiser is real, with a nonnegative site sum
        assert np.all(np.imag(res.z1) == 0.0)
        assert np.sum(res.z1).real >= 0.0
        # reported meson field is the eliminated one
        npt.assert_allclose(res.z2, eliminate_meson(grid, params, res.z1), atol=1e-13)
        # energy consistent with the functional
        val, _ = reduced_functional(grid, params, res.z1)
        assert res.energy == pytest.approx(val, rel=1e-12)
        assert res.energy <= np.min(res.start_energies) + 1e-12

    def test_history_monotone_and_bounded(self):
        grid, params = tiny_instance()
        res = minimize_constrained(grid, params, seed=9)
        assert np.all(np.diff(res.history) <= 1e-12)
        assert np.all(res.history >= binding_lower_bound(grid, params) - 1e-12)

    def test_history_monotone_into_distinct_local_minima(self):
        grid, params = strong_instance()
        floor = binding_lower_bound(grid, params)
        minima = set()
        for seed in range(6):
            res = minimize_constrained(grid, params, seed=seed, n_starts=1)
            assert np.all(np.diff(res.history) <= 1e-12)
            assert np.all(res.history >= floor - 1e-12)
            minima.add(round(res.energy, 6))
        assert len(minima) >= 3

    @pytest.mark.parametrize("name", ["minimize", "theorem2"])
    def test_reaches_tight_tolerance_on_example_models(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        res = minimize_constrained(cfg.grid, cfg.params, grad_tol=1e-12)
        assert res.converged
        assert res.gradient_norm <= 1e-12 * max(1.0, abs(res.energy))

    def test_exhausted_budget_carries_best_iterate(self):
        grid, params = tiny_instance()
        with pytest.raises(MaxIterationsExceeded) as info:
            minimize_constrained(grid, params, max_iter=1, grad_tol=1e-14)
        best = info.value.best
        assert best.iterations == 1 and not best.converged
        assert len(best.history) == 2

    def test_deterministic_in_seed(self):
        grid, params = tiny_instance()
        r1 = minimize_constrained(grid, params, seed=42)
        r2 = minimize_constrained(grid, params, seed=42)
        npt.assert_array_equal(r1.z1, r2.z1)
        assert r1.energy == r2.energy

    def test_stationarity(self):
        grid, params = tiny_instance()
        res = minimize_constrained(grid, params, seed=1)
        _, grad = reduced_functional(grid, params, res.z1)
        radial = np.real(grid.inner_x(res.z1, grad)) / params.charge**2
        tang = grad - radial * res.z1
        assert grid.norm_x(tang) <= 1e-6 * max(1.0, abs(res.energy))

    def test_beats_uncoupled_ground_state(self):
        # with coupling on, the minimum lies strictly below the bare one
        grid, params = tiny_instance()
        res = minimize_constrained(grid, params, seed=2)
        h1 = one_body_hamiltonian(grid, params)
        e_bare = np.linalg.eigvalsh(h1)[0] * params.charge**2
        assert res.energy < e_bare - 1e-6
