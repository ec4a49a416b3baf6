"""Grid conventions, transforms, dispersion, coupling profiles, one-body operator."""

import numpy as np
import numpy.testing as npt
import pytest

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
from nelson_lab.errors import DegenerateDispersion
from nelson_lab.fock_space import truncated_basis
from nelson_lab.quantum_dynamics import _site_profiles


def make_params(grid, **kw):
    defaults = dict(
        mass=1.0,
        meson_mass=1.0,
        charge=1.0,
        potential=np.zeros(grid.n_sites),
        chi=np.ones(grid.n_sites),
    )
    defaults.update(kw)
    return ModelParams(**defaults)


class TestGrid:
    def test_spacings(self):
        g = Grid(8, np.pi)
        assert g.dx == pytest.approx(2 * np.pi / 8)
        assert g.dk == pytest.approx(1.0)
        assert g.dx * g.dk == pytest.approx(2 * np.pi / 8)
        npt.assert_allclose(g.x[0], -np.pi)
        npt.assert_allclose(g.k, 2 * np.pi * np.fft.fftfreq(8, d=g.dx))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid(7, 1.0)
        with pytest.raises(ValueError):
            Grid(8, 0.0)

    def test_transform_is_unitary(self):
        g = Grid(16, 2.5)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = g.to_momentum(u)
        assert g.norm_k(w) == pytest.approx(g.norm_x(u), rel=1e-13)
        npt.assert_allclose(g.to_position(w), u, atol=1e-13)

    def test_plane_wave_concentrates_on_one_mode(self):
        g = Grid(8, np.pi)
        m = 3
        u = np.exp(1j * g.k[m] * g.x)
        w = g.to_momentum(u)
        expected = np.zeros(8, dtype=complex)
        expected[m] = 2 * g.half_length / np.sqrt(2 * np.pi)
        npt.assert_allclose(w, expected, atol=1e-13)

    def test_parseval_inner_product(self):
        g = Grid(12, 1.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        lhs = g.inner_x(u, v)
        rhs = g.inner_k(g.to_momentum(u), g.to_momentum(v))
        assert lhs == pytest.approx(rhs, abs=1e-13)


class TestDispersion:
    def test_values(self):
        assert dispersion(0.0, 1.0) == pytest.approx(1.0)
        assert dispersion(3.0, 4.0) == pytest.approx(5.0)
        npt.assert_allclose(dispersion(np.array([0.0, -3.0]), 4.0), [4.0, 5.0])

    def test_massless_at_origin(self):
        assert dispersion(0.0, 0.0) == 0.0


def plane_wave_profiles(g, p):
    """sqrt(dk) g[m, j]: the coupling profiles the operators use, over
    plane waves on every mode."""
    basis = truncated_basis(g.n_sites, 1, modes=np.arange(g.n_sites))
    return np.sqrt(g.dk) * _site_profiles(g, coupling_weight(g, p), basis)


class TestFormFactor:
    def test_matches_elementwise_oracle(self):
        g = Grid(8, np.pi)
        rng = np.random.default_rng(11)
        chi = rng.standard_normal(8)
        p = make_params(g, chi=chi, meson_mass=0.7)
        got = plane_wave_profiles(g, p)
        omega = np.sqrt(g.k**2 + 0.7**2)
        for m in range(8):
            for j in range(8):
                want = (
                    np.sqrt(g.dk)
                    * chi[m]
                    / np.sqrt(omega[m])
                    * np.exp(-1j * g.k[m] * g.x[j])
                )
                assert got[m, j] == pytest.approx(want, abs=1e-14)

    def test_single_mode_value(self):
        g = Grid(4, np.pi)  # dk = 1
        chi = np.zeros(4)
        chi[0] = 1.0
        p = make_params(g, chi=chi, meson_mass=1.0)
        got = plane_wave_profiles(g, p)
        npt.assert_allclose(got[0], np.ones(4))  # sqrt(1)*1/sqrt(1)*e^0
        npt.assert_allclose(got[1:], 0.0)

    def test_degenerate_dispersion_raises(self):
        g = Grid(8, np.pi)
        p = make_params(g, meson_mass=0.0, chi=np.ones(8))
        with pytest.raises(DegenerateDispersion):
            coupling_weight(g, p)

    def test_zero_weight_at_degenerate_mode_is_fine(self):
        g = Grid(8, np.pi)
        chi = np.ones(8)
        chi[0] = 0.0  # k=0 mode carries no coupling
        p = make_params(g, meson_mass=0.0, chi=chi)
        w = coupling_weight(g, p)
        assert w[0] == 0.0
        assert np.all(np.isfinite(w))


class TestOneBody:
    def test_real_symmetric(self):
        g = Grid(16, 3.0)
        p = make_params(g, potential=potential_preset(g, "harmonic", 0.5))
        h1 = one_body_hamiltonian(g, p)
        assert h1.dtype == np.float64
        npt.assert_allclose(h1, h1.T, atol=1e-13)

    def test_plane_waves_are_kinetic_eigenvectors(self):
        g = Grid(8, np.pi)
        p = make_params(g)
        h1 = one_body_hamiltonian(g, p)
        for m in [0, 1, 5]:
            u = np.exp(1j * g.k[m] * g.x)
            npt.assert_allclose(h1 @ u, (g.k[m] ** 2 / 2) * u, atol=1e-12)

    def test_matches_spectral_multiplier_route(self):
        g = Grid(16, 2.0)
        v = potential_preset(g, "quartic", 0.3)
        p = make_params(g, mass=1.7, potential=v)
        h1 = one_body_hamiltonian(g, p)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        mult = g.k**2 / (2 * 1.7)
        want = g.to_position(mult * g.to_momentum(u)) + v * u
        npt.assert_allclose(h1 @ u, want, atol=1e-12)

    def test_harmonic_ground_energy(self):
        # -(1/2) d^2/dx^2 + x^2/2 has ground energy 1/2; the grid value
        # converges to it spectrally fast.
        g = Grid(128, 10.0)
        p = make_params(g, potential=potential_preset(g, "harmonic", 0.5))
        h1 = one_body_hamiltonian(g, p)
        e0 = np.linalg.eigvalsh(h1)[0]
        assert e0 == pytest.approx(0.5, abs=1e-6)


class TestPresets:
    def test_gaussian_chi(self):
        g = Grid(8, np.pi)
        chi = chi_gaussian(g, 0.4, 2.0)
        assert chi[0] == pytest.approx(0.4)  # k = 0
        m = 2  # k = 2
        assert chi[m] == pytest.approx(0.4 * np.exp(-g.k[m] ** 2 / 8.0))
        npt.assert_allclose(chi[1:][::-1], chi[1:], atol=1e-15)  # even in k

    def test_sharp_band_chi(self):
        g = Grid(8, np.pi)
        chi = chi_sharp_band(g, 0.3, 1.0, 2.0)
        expected = np.where((np.abs(g.k) >= 1.0) & (np.abs(g.k) <= 2.0), 0.3, 0.0)
        npt.assert_allclose(chi, expected)

    def test_potential_presets(self):
        g = Grid(8, 2.0)
        npt.assert_allclose(potential_preset(g, "zero"), 0.0)
        npt.assert_allclose(potential_preset(g, "harmonic", 2.0), 2.0 * g.x**2)
        npt.assert_allclose(potential_preset(g, "quartic", 1.0), g.x**4)
        with pytest.raises(ValueError):
            potential_preset(g, "cubic")
