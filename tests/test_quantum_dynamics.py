"""Coupled dynamics on truncated product bases."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.sparse.linalg._expm_multiply as scipy_expm_multiply
from scipy.linalg import expm

from nelson_lab.classical_energy import evaluate_h
from nelson_lab.classical_dynamics import FieldState
from nelson_lab.discretization import (
    Grid, ModelParams, chi_sharp_band, coupling_weight, covered_modes,
    potential_preset)
from nelson_lab import fock_space, quantum_dynamics
from nelson_lab.errors import SectorBasisUnsupported, StepSizeRejected
from nelson_lab.fock_space import (
    ProductOperator, annihilator, coherent_state, sector_basis,
    truncated_basis, weyl_generator)
from nelson_lab.limit_harness import default_xi_panel, theorem1_sweep
from nelson_lab.quantum_dynamics import (
    FactoredHamiltonian, active_meson_basis, b_expansion_residual,
    b_operators, check_relative_bounds, coherent_product_state,
    duhamel_check, free_weyl_argument,
    gronwall_bound_check, number_weight_diagonal, propagate,
    weyl_matrix_elements)


def make_system(n_sites, half_length, chi_amp, band, caps, eps):
    grid = Grid(n_sites, half_length)
    params = ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, chi_amp, band[0], band[1]))
    nb = truncated_basis(grid.n_sites, caps[0])
    w = coupling_weight(grid, params)
    modes = np.nonzero(w != 0)[0]
    if modes.size == 0:
        modes = np.array([1])
    mb = truncated_basis(modes.size, caps[1], modes=modes)
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)
    return grid, params, nb, mb, ham


def tiny_system(eps=0.5, chi_amp=0.3, caps=(8, 10)):
    # two sites, one coupled momentum mode; nucleon number is conserved
    # so only the meson cap can leak, and it is far above the occupation
    return make_system(2, np.pi / 2, chi_amp, (2.0, 2.0), caps, eps)


def coherent_initial(grid, nb, mb, eps, z1, z2):
    v1, d1 = coherent_state(grid, nb, z1, eps)
    v2, d2 = coherent_state(grid, mb, z2, eps)
    return np.kron(v1, v2), max(d1, d2)


def tiny_fields(grid):
    z1 = np.array([0.05 + 0.02j, -0.03 + 0.01j])
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.08 - 0.03j
    return z1, z2


def free_part(ham):
    """H0 = H - H_c, dense."""
    return ham.toarray() - ham.coupling.toarray()


def test_assembled_hamiltonians_hermitian():
    _, _, _, _, ham = tiny_system()
    for mat in (free_part(ham), ham.coupling.toarray(), ham.toarray()):
        assert np.abs(mat - mat.conj().T).max() <= 1e-12


def test_coherent_energy_matches_classical_functional():
    # expectation of H in a truncated coherent product state must equal
    # the classical energy functional up to the truncated tail
    grid = Grid(4, np.pi)
    params = ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, 0.5, 1.0, 1.0))
    eps = 0.5
    nb = truncated_basis(4, 10)
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    mb = truncated_basis(modes.size, 12, modes=modes)
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)
    z1 = 0.3 * np.array([1.0, 0.5 + 0.5j, -0.3, 0.2j])
    z2 = np.zeros(4, dtype=complex)
    z2[modes] = [0.2 - 0.1j, 0.15j]
    state, deficit = coherent_initial(grid, nb, mb, eps, z1, z2)
    assert deficit <= 1e-10
    e_quantum = np.vdot(state, ham @ state).real
    e_classical = evaluate_h(grid, params, FieldState(z1, z2)).total
    assert abs(e_quantum - e_classical) <= 1e-6 * (1.0 + abs(e_classical))
    # scaled nucleon number reproduces the classical charge
    n1_diag = np.repeat(eps * nb.occupations.sum(axis=1), mb.dim)
    n1 = float(n1_diag @ (np.abs(state) ** 2))
    charge = grid.dx * np.sum(np.abs(z1) ** 2)
    assert abs(n1 - charge) <= 1e-8


def test_propagation_conserves_norm_and_energy():
    grid, _, nb, mb, ham = tiny_system()
    z1, z2 = tiny_fields(grid)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    e0 = np.vdot(state, ham @ state).real
    for snap in propagate(ham, state, [0.25, 0.5, 1.0]):
        assert abs(np.linalg.norm(snap) - 1.0) <= 1e-10
        e_t = np.vdot(snap, ham @ snap).real
        assert abs(e_t - e0) <= 1e-9 * (1.0 + abs(e0))


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


@pytest.fixture
def propagated(one_pair):
    """exp(-i t h) v by `propagate`, with h standing in for H/eps."""
    def run(h, v, t):
        return propagate(one_pair(h), v, [t])[0]
    return run


def test_propagator_matches_dense_exponential(propagated):
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(3, 40))
        h = random_hermitian(rng, n, scale=rng.uniform(0.1, 5.0))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = float(rng.uniform(0.0, 3.0))
        want = expm(-1j * t * h) @ v
        got = propagated(h, v, t)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(v)


def test_propagator_long_interval(propagated):
    rng = np.random.default_rng(11)
    n = 60
    h = random_hermitian(rng, n, scale=8.0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t = 12.5
    want = expm(-1j * t * h) @ v
    got = propagated(h, v, t)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(v)


def test_propagator_preserves_norm(propagated):
    rng = np.random.default_rng(3)
    n = 50
    h = random_hermitian(rng, n, scale=4.0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = propagated(h, v, 7.0)
    assert abs(np.linalg.norm(got) - np.linalg.norm(v)) \
        <= 1e-10 * np.linalg.norm(v)
    want = expm(-7j * h) @ v
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(v)


def test_propagator_zero_time_and_zero_vector(propagated):
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.array_equal(propagated(h, v, 0.0), v)
    zero = np.zeros(8, dtype=complex)
    assert np.array_equal(propagated(h, zero, 1.0), zero)


def test_propagator_diagonal_phase(propagated):
    omega = np.array([0.5, 1.0, 2.0, 4.0])
    v = np.array([1.0, 1.0j, -0.5, 0.25 + 0.1j])
    got = propagated(np.diag(omega), v, 1.7)
    want = np.exp(-1j * 1.7 * omega) * v
    assert np.linalg.norm(got - want) <= 1e-12


def test_propagation_ignores_global_random_state():
    # propagation must not read the global np.random state; scipy's
    # expm_multiply does, through its randomized onenormest, once
    # |A|_1 > 63.36, and eps=0.05, t=1 on the four-site grid of the
    # theorem1 ladder is above that
    eps = 0.05
    grid, _, nb, mb, ham = make_system(4, np.pi, 0.25, (1.0, 1.0),
                                       (9, 6), eps)
    assert ham.dim == 20020
    # |H - mu|_1, mu the mean of the diagonal, from the pair row sums: H
    # is Hermitian, so its largest column sum of |H - mu| is its largest
    # row sum, radius_j + |h_jj - mu|, which reaches the farther end of
    # the Gershgorin interval of the pairs.  Pairs that share a pattern
    # widen the radii; here the widest row is not widened, and the value,
    # 71.60, is that of the assembled matrix
    def trace(factor, n):
        if factor is None:
            return n
        return np.sum(factor) if factor.ndim == 1 else factor.diagonal().sum()

    mu = np.real(sum(trace(left, ham.dims[0]) * trace(right, ham.dims[1])
                     for left, right in ham.terms)) / ham.dim
    lo, hi = fock_space._gershgorin_interval(ham)
    assert max(hi - mu, mu - lo) / eps > 63.36
    z1 = np.array([0.15, 0.09 + 0.06j, -0.075, 0.045j])
    z2 = np.zeros(4, dtype=complex)
    z2[mb.modes] = [0.1 - 0.05j, 0.07j]
    state, _ = coherent_initial(grid, nb, mb, eps, z1, z2)
    runs = []
    for seed in (0, 12345):
        np.random.seed(seed)
        runs.append(propagate(ham, state, [1.0])[0].tobytes())
    assert runs[0] == runs[1]


def test_theorem1_and_duhamel_run_without_expm_multiply(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply called")

    monkeypatch.setattr(spla, "expm_multiply", refuse)
    monkeypatch.setattr(scipy_expm_multiply, "_expm_multiply_simple", refuse)
    grid, params, nb, mb, ham = tiny_system(caps=(4, 5))
    z1, z2 = tiny_fields(grid)
    report = theorem1_sweep(grid, params, FieldState(z1, z2), [0.4],
                            (0.25,))
    assert np.all(report.errors <= 0.1)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25 - 0.2j
    assert duhamel_check(ham, state, xi1, xi2, t=0.25,
                         n_nodes=9).residual <= 1e-6


def test_theorem1_and_duhamel_build_no_product_matrix(monkeypatch):
    # propagation applies the factor pairs of H and takes its interval from
    # them, so no rung and no Duhamel check assembles a product-space matrix
    def no_kron(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called")

    monkeypatch.setattr(sp, "kron", no_kron)
    grid, params, nb, mb, ham = tiny_system(caps=(4, 5))
    z1, z2 = tiny_fields(grid)
    report = theorem1_sweep(grid, params, FieldState(z1, z2), [0.4, 0.2],
                            (0.25, 0.5))
    assert np.all(report.errors <= 0.1)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25 - 0.2j
    assert duhamel_check(ham, state, xi1, xi2, t=0.25,
                         n_nodes=9).residual <= 1e-6


def test_ladder_step_at_eps_0025_takes_few_matvecs(monkeypatch):
    # the eps=0.025 rung of the theorem1 ladder (dim 65520): one t=0.25
    # step takes 48 matvecs (scipy's expm_multiply makes 204 column
    # products with the scaled matrix)
    eps = 0.025
    grid, _, nb, mb, ham = make_system(4, np.pi, 0.25, (1.0, 1.0),
                                       (12, 7), eps)
    assert ham.dim == 65520
    products, original = [], ProductOperator._matmat

    def counted(self, x, out=None):
        products.append(x.shape[1])
        return original(self, x, out)

    monkeypatch.setattr(ProductOperator, "_matmat", counted)
    z1 = np.array([0.15, 0.09 + 0.06j, -0.075, 0.045j])
    z2 = np.zeros(4, dtype=complex)
    z2[mb.modes] = [0.1 - 0.05j, 0.07j]
    state, _ = coherent_initial(grid, nb, mb, eps, z1, z2)
    psi = propagate(ham, state, [0.25])[0]
    assert 0 < len(products) <= 60
    e0 = np.vdot(state, ham @ state).real
    assert abs(np.vdot(psi, ham @ psi).real - e0) <= 1e-12
    # both times of the ladder share one recurrence: 75 matvecs, where
    # stepping from 0.25 on to 0.5 took 96
    products.clear()
    both = propagate(ham, state, [0.25, 0.5])
    assert 0 < len(products) <= 80
    assert np.linalg.norm(both[0] - psi) <= 1e-12
    for snap in both:
        assert abs(np.vdot(snap, ham @ snap).real - e0) <= 1e-12


def test_uneven_coupling_propagates_in_complex_arithmetic():
    # chi(k) != chi(-k) leaves the standing-wave coupling complex, so the
    # propagator takes its complex path
    grid = Grid(4, np.pi)
    chi = np.zeros(4)
    chi[[1, 3]] = [0.3, 0.15]
    params = ModelParams(mass=1.0, meson_mass=1.0, charge=1.0,
                         potential=potential_preset(grid, "harmonic", 1.0),
                         chi=chi)
    eps = 0.5
    ham = FactoredHamiltonian(grid, params, eps, truncated_basis(4, 3),
                              active_meson_basis(grid, params, 4))
    assert ham.meson_basis.standing
    assert ham.dtype == np.complex128
    z1 = np.array([0.15, 0.09 + 0.06j, -0.075, 0.045j])
    z2 = np.zeros(4, dtype=complex)
    z2[[1, 3]] = [0.1 - 0.05j, 0.07j]
    psi0, _ = coherent_product_state(ham, z1, z2)
    times = [0.0, 0.2, 0.7]
    dense = ham.toarray()
    for t, got in zip(times, propagate(ham, psi0, times)):
        want = expm(-1j * t * dense / eps) @ psi0
        assert np.linalg.norm(got - want) <= 1e-12


@pytest.mark.parametrize("chi_3, dtype", [(0.3, np.float64),
                                          (0.15, np.complex128)])
def test_propagate_leaves_its_input_alone(chi_3, dtype):
    # the recurrence writes each term into one of its kept vectors, never
    # into T_0: on a complex H that is the complex start vector itself
    grid = Grid(4, np.pi)
    chi = np.zeros(4)
    chi[[1, 3]] = [0.3, chi_3]
    params = ModelParams(mass=1.0, meson_mass=1.0, charge=1.0,
                         potential=potential_preset(grid, "harmonic", 1.0),
                         chi=chi)
    ham = FactoredHamiltonian(grid, params, 0.5, truncated_basis(4, 3),
                              active_meson_basis(grid, params, 4))
    assert ham.dtype == dtype
    z2 = np.zeros(4, dtype=complex)
    z2[[1, 3]] = [0.1 - 0.05j, 0.07j]
    psi0, _ = coherent_product_state(
        ham, np.array([0.15, 0.09 + 0.06j, -0.075, 0.045j]), z2)
    kept = psi0.copy()
    snaps = propagate(ham, psi0, [0.0, 0.3, 0.6])
    assert np.array_equal(psi0, kept)
    assert np.array_equal(snaps[0], kept)
    assert not any(np.shares_memory(snap, psi0) for snap in snaps)


def raised_caps(nb, mb, k):
    """The two factor bases with their caps raised by k."""
    return (truncated_basis(nb.n_modes, nb.cap + k),
            truncated_basis(mb.n_modes, mb.cap + k, modes=mb.modes,
                            standing=mb.standing))


def embedded(vec, nb, mb, big_nb, big_mb):
    """A product-basis vector of nb (x) mb as P over big_nb (x) big_mb."""
    out = np.zeros((big_nb.dim, big_mb.dim), dtype=complex)
    out[np.ix_(big_nb.index_of(nb.occupations),
               big_mb.index_of(mb.occupations))] = vec.reshape(nb.dim, mb.dim)
    return out


def dense_weyl_factors(grid, eps, nb, mb, xi1, xi2):
    """exp of each capped factor generator, dense."""
    return (expm(weyl_generator(grid, nb, xi1, eps).toarray()),
            expm(weyl_generator(grid, mb, xi2, eps).toarray()))


def dense_reference(grid, eps, nb, mb, xi1, xi2, phi, chis, k):
    """<phi, W chi> for each chi, with W = exp(X1) (x) exp(X2) the dense
    exponential of the capped generator on caps raised by k, applied as
    exp(X1) P exp(X2)^T; it differs from the untruncated W(xi) only near
    the raised caps."""
    big_nb, big_mb = raised_caps(nb, mb, k)
    w1, w2 = dense_weyl_factors(grid, eps, big_nb, big_mb, xi1, xi2)
    left = embedded(phi, nb, mb, big_nb, big_mb)
    return np.array([
        np.vdot(left, w1 @ embedded(chi, nb, mb, big_nb, big_mb) @ w2.T)
        for chi in chis])


def test_sweep_matches_dense_interaction_picture_route():
    # oracle for theorem1_sweep: rotate psi(t) by exp(+itH0/eps), embed it
    # in caps raised by 8, and apply W(xi) built there, all dense
    grid, params, _, coupled, _ = tiny_system()
    z1, z2 = tiny_fields(grid)
    eps, t_values = 0.2, (0.25, 0.5)
    report = theorem1_sweep(grid, params, FieldState(z1, z2), [eps],
                            t_values)
    (cap_n, cap_m), = report.caps
    nb = truncated_basis(grid.n_sites, cap_n)
    mb = truncated_basis(coupled.modes.size, cap_m, modes=coupled.modes)
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)
    assert report.dims == (ham.dim,)
    state, _ = coherent_initial(grid, nb, mb, eps, z1, z2)
    h_total, h_free = ham.toarray(), free_part(ham)
    panel = default_xi_panel(grid, mb.modes)
    for b, t in enumerate(t_values):
        psi_t = expm(-1j * t * h_total / eps) @ state
        rotated = expm(1j * t * h_free / eps) @ psi_t
        for c, (xi1, xi2) in enumerate(panel):
            value, = dense_reference(grid, eps, nb, mb, xi1, xi2, rotated,
                                     [rotated], 8)
            sample = report.samples[b * len(panel) + c]
            assert (sample.t, sample.xi_index) == (t, c)
            assert abs(sample.value - value) <= 1e-12


def random_weyl_case(rng, grid, nb, mb, scale):
    xi1 = scale * (rng.standard_normal(grid.n_sites)
                   + 1j * rng.standard_normal(grid.n_sites))
    xi2 = np.zeros(grid.n_sites, dtype=complex)
    xi2[mb.modes] = scale * (rng.standard_normal(mb.modes.size)
                             + 1j * rng.standard_normal(mb.modes.size))
    dim = nb.dim * mb.dim
    phi, chi = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                for _ in range(2))
    return xi1, xi2, phi / np.linalg.norm(phi), chi / np.linalg.norm(chi)


@pytest.mark.parametrize("standing", [False, True])
def test_weyl_matrix_elements_match_dense_reference_at_raised_caps(
        standing, free_ham):
    # random states reach the caps, where the exponential of the capped
    # generator is furthest from P W P; caps raised by 8 push that
    # difference below 1e-13
    if standing:
        grid, eps, caps = Grid(4, np.pi), 0.3, (1, 3)
        modes = np.array([1, 3])
    else:
        grid, eps, caps = Grid(2, np.pi / 2), 0.2, (3, 4)
        modes = np.array([1])
    nb = truncated_basis(grid.n_sites, caps[0])
    mb = truncated_basis(modes.size, caps[1], modes=modes, standing=standing)
    rng = np.random.default_rng(5)
    xi1, xi2, phi, chi = random_weyl_case(rng, grid, nb, mb, 0.3)
    got = weyl_matrix_elements(free_ham(grid, eps, nb, mb), xi1, xi2, phi,
                               [chi])
    want = dense_reference(grid, eps, nb, mb, xi1, xi2, phi, [phi, chi], 8)
    assert abs(got[0]) >= 0.1 and abs(got[1]) >= 0.01
    assert np.abs(got - want).max() <= 1e-12


def test_weyl_matrix_elements_do_not_depend_on_the_cap():
    grid, params, nb, mb, ham = tiny_system(caps=(4, 5))
    rng = np.random.default_rng(8)
    xi1, xi2, phi, chi = random_weyl_case(rng, grid, nb, mb, 0.5)
    got = weyl_matrix_elements(ham, xi1, xi2, phi, [chi])
    big_nb, big_mb = raised_caps(nb, mb, 2)
    big_phi, big_chi = (embedded(v, nb, mb, big_nb, big_mb).ravel()
                        for v in (phi, chi))
    big = FactoredHamiltonian(grid, params, ham.eps, big_nb, big_mb)
    again = weyl_matrix_elements(big, xi1, xi2, big_phi, [big_chi])
    assert np.abs(got - again).max() <= 1e-13


def test_lowering_series_reads_sparse_rows_like_the_dense_slice():
    # the series builds each term on its leading rows from the leading
    # rows of the CSR arrays; the reference sums the same terms over the
    # whole block with the dense matrix
    grid = Grid(4, np.pi)
    nb = truncated_basis(grid.n_sites, 6)
    rng = np.random.default_rng(21)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    op = (1j / np.sqrt(2.0)) * annihilator(nb, f, grid.dx, 0.1)
    block = (rng.standard_normal((nb.dim, 3))
             + 1j * rng.standard_normal((nb.dim, 3)))
    parts = quantum_dynamics._lowering_series(op, block, nb)
    dense, term = np.zeros((2,) + block.shape, complex), block
    for k in range(nb.cap + 1):
        dense[k % 2] += term
        term = op.toarray() @ term / (k + 1)
    for got, want in zip(parts, dense):
        assert np.abs(got - want).max() <= 1e-13
    exact = expm(op.toarray()) @ block
    assert np.abs(parts[0] + parts[1] - exact).max() <= 1e-12


def test_weyl_vacuum_value_is_exact_at_a_low_cap(free_ham):
    grid = Grid(4, np.pi)
    eps = 0.5
    modes = np.array([1, 3])
    nb = truncated_basis(grid.n_sites, 2)
    mb = truncated_basis(2, 2, modes=modes)
    xi1 = np.array([0.3 - 0.1j, 0.2j, -0.4, 0.1 + 0.1j])
    xi2 = np.zeros(grid.n_sites, dtype=complex)
    xi2[1] = 0.7 - 0.2j
    xi2[3] = 0.4j
    vac = np.zeros(nb.dim * mb.dim)
    vac[0] = 1.0
    got, = weyl_matrix_elements(free_ham(grid, eps, nb, mb), xi1, xi2, vac,
                                [])
    norm_sq = (grid.dx * np.sum(np.abs(xi1) ** 2)
               + grid.dk * np.sum(np.abs(xi2[modes]) ** 2))
    assert abs(got - np.exp(-eps * norm_sq / 4.0)) <= 1e-14


@pytest.mark.parametrize("n_chis", [0, 3])
def test_weyl_values_ignore_what_the_workspace_held(n_chis):
    # each call writes the parts and each term buffer of the workspace
    # before it reads them: one filled with NaN gives the bits of a fresh
    # Hamiltonian
    grid, params, nb, mb, ham = tiny_system(caps=(4, 5))
    rng = np.random.default_rng(9)
    xi1, xi2, phi, _ = random_weyl_case(rng, grid, nb, mb, 0.5)
    chis = [rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
            for _ in range(n_chis)]
    fresh = FactoredHamiltonian(grid, params, ham.eps, nb, mb)
    want = weyl_matrix_elements(fresh, xi1, xi2, phi, chis)
    assert np.array_equal(weyl_matrix_elements(ham, xi1, xi2, phi, chis),
                          want)
    ham.weyl_workspace.fill(np.nan)
    assert np.array_equal(weyl_matrix_elements(ham, xi1, xi2, phi, chis),
                          want)


def test_weyl_workspace_is_kept_until_the_block_changes(monkeypatch):
    # the nucleon series of every call with one vector runs in the same
    # workspace (its even and odd parts and two term buffers), the lone
    # phi reshaped into it; a Duhamel node (phi and its three B_j phi)
    # replaces it with one four times as wide
    grid, _, nb, mb, ham = tiny_system(caps=(4, 5))
    rng = np.random.default_rng(10)
    xi1, xi2, phi, chi = random_weyl_case(rng, grid, nb, mb, 0.5)
    assert ham.weyl_workspace is None

    def no_hstack(*args, **kwargs):
        raise AssertionError("a lone vector copied by np.hstack")

    with monkeypatch.context() as patched:
        patched.setattr(np, "hstack", no_hstack)
        weyl_matrix_elements(ham, xi1, xi2, phi, ())
        kept = ham.weyl_workspace
        assert kept.shape == (4, nb.dim, mb.dim)
        weyl_matrix_elements(ham, 0.5 * xi1, xi2, chi, ())
        assert ham.weyl_workspace is kept
    weyl_matrix_elements(ham, xi1, xi2, phi,
                         [b @ phi for b in b_operators(ham, xi1, xi2)])
    block = ham.weyl_workspace
    assert block is not kept and block.shape == (4, nb.dim, 4 * mb.dim)
    weyl_matrix_elements(ham, xi1, xi2, chi, [phi, phi, chi])
    assert ham.weyl_workspace is block


def test_weyl_matrix_elements_build_no_product_matrix(monkeypatch):
    grid, _, nb, mb, ham = tiny_system(caps=(4, 5))
    rng = np.random.default_rng(3)
    xi1, xi2, phi, chi = random_weyl_case(rng, grid, nb, mb, 0.5)

    def no_kron(*args, **kwargs):
        raise AssertionError("product-space matrix built")

    with monkeypatch.context() as patched:
        patched.setattr(sp, "kron", no_kron)
        patched.setattr(np, "kron", no_kron)
        got = weyl_matrix_elements(ham, xi1, xi2, phi, [chi])
    want = dense_reference(grid, ham.eps, nb, mb, xi1, xi2, phi, [phi, chi],
                           12)
    assert np.abs(got - want).max() <= 1e-12


def test_weyl_matrix_elements_reject_a_sector_basis():
    # a nucleon sector raises when its lowering table is asked for, a
    # meson sector already when the Hamiltonian builds its slot ladders
    grid, params, nb, mb, _ = tiny_system(caps=(2, 2))
    xi1 = np.array([0.3, 0.2j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25
    for bases in ((sector_basis(grid.n_sites, 1), mb),
                  (nb, sector_basis(mb.n_modes, 1, modes=mb.modes))):
        with pytest.raises(SectorBasisUnsupported):
            ham = FactoredHamiltonian(grid, params, 0.5, *bases)
            weyl_matrix_elements(ham, xi1, xi2, np.ones(ham.dim), [])


def test_gershgorin_interval_once_per_propagation(monkeypatch):
    calls, original = [], fock_space._gershgorin_interval

    def counted(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(fock_space, "_gershgorin_interval", counted)
    grid, _, nb, mb, ham = tiny_system(caps=(4, 5))
    z1, z2 = tiny_fields(grid)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    propagate(ham, state, [0.25, 0.5, 0.75, 1.0])
    assert len(calls) == 1
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25 - 0.2j
    duhamel_check(ham, state, xi1, xi2, t=0.25, n_nodes=9)
    assert len(calls) == 2


def test_free_conjugation_of_weyl_is_free_flow_of_argument():
    # exp(-itH0/eps) W(xi) exp(+itH0/eps) = W(xi freely evolved), exactly
    # on the truncated bases, for the exponential of the capped generator
    grid, params, nb, mb, ham = make_system(
        2, np.pi / 2, 0.3, (2.0, 2.0), (2, 3), 0.5)
    rng = np.random.default_rng(1)
    xi1 = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.4 * (rng.standard_normal(mb.modes.size)
                           + 1j * rng.standard_normal(mb.modes.size))
    t = 0.7
    u0 = expm(-1j * t * free_part(ham) / ham.eps)
    w_mat = np.kron(*dense_weyl_factors(grid, ham.eps, nb, mb, xi1, xi2))
    xi1_t, xi2_t = free_weyl_argument(grid, params, xi1, xi2, t)
    w_t = np.kron(*dense_weyl_factors(grid, ham.eps, nb, mb, xi1_t, xi2_t))
    assert np.linalg.norm(u0 @ w_mat @ u0.conj().T - w_t, 2) <= 1e-10


def test_b_operators_anti_hermitian_and_scalar_tail():
    grid, _, _, mb, ham = tiny_system(caps=(3, 4))
    rng = np.random.default_rng(2)
    xi1 = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.5 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    b0, b1, b2 = b_operators(ham, xi1, xi2)
    for b in (b0, b1, b2):
        dense = b.toarray()
        assert np.abs(dense + dense.conj().T).max() <= 1e-12
    dense = b2.toarray()
    scalar = dense[0, 0]
    assert abs(scalar.real) <= 1e-15
    assert np.allclose(dense, scalar * np.eye(ham.dim))


# the tiny system has one Nyquist mode, which stays a plane wave in the
# standing-wave frame; Grid(4) carries the pair k = +-1
INVARIANT_CASES = [
    pytest.param(2, np.pi / 2, (2.0, 2.0), (4, 5), False, id="tiny-plane"),
    pytest.param(2, np.pi / 2, (2.0, 2.0), (4, 5), True, id="tiny-standing"),
    pytest.param(4, np.pi, (1.0, 1.0), (2, 3), False, id="grid4-plane"),
    pytest.param(4, np.pi, (1.0, 1.0), (2, 3), True, id="grid4-standing"),
]


def invariant_system(n_sites, half_length, band, caps, standing, eps=0.5):
    grid = Grid(n_sites, half_length)
    params = ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, 0.3, band[0], band[1]))
    modes = covered_modes(grid, params)
    nb = truncated_basis(grid.n_sites, caps[0])
    mb = truncated_basis(modes.size, caps[1], modes=modes, standing=standing)
    return grid, params, nb, mb, FactoredHamiltonian(grid, params, eps, nb,
                                                     mb)


def random_arguments(grid, mb, seed):
    rng = np.random.default_rng(seed)
    xi1 = 0.5 * (rng.standard_normal(grid.n_sites)
                 + 1j * rng.standard_normal(grid.n_sites))
    xi2 = np.zeros(grid.n_sites, dtype=complex)
    xi2[mb.modes] = 0.5 * (rng.standard_normal(mb.modes.size)
                           + 1j * rng.standard_normal(mb.modes.size))
    return xi1, xi2


@pytest.mark.parametrize("n_sites, half_length, band, caps, standing",
                         INVARIANT_CASES)
def test_product_operator_invariants(n_sites, half_length, band, caps,
                                     standing):
    grid, _, nb, mb, ham = invariant_system(n_sites, half_length, band,
                                            caps, standing)
    dense = ham.toarray()
    assert np.abs(dense - dense.conj().T).max() <= 1e-13
    # H conserves the nucleon number N1 (x) I exactly
    n1 = np.repeat(ham.eps * nb.occupations.sum(axis=1), mb.dim)
    assert np.abs(dense * n1[None, :] - n1[:, None] * dense).max() == 0.0
    # a single vector's product against the all-columns block
    v = np.random.default_rng(5).standard_normal(ham.dim) + 0j
    assert np.linalg.norm(ham @ v - dense @ v) <= 1e-14 * np.linalg.norm(v)
    xi1, xi2 = random_arguments(grid, mb, seed=4)
    for b in b_operators(ham, xi1, xi2):
        b_dense = b.toarray()
        assert np.abs(b_dense + b_dense.conj().T).max() <= 1e-13
        assert np.linalg.norm(b @ v - b_dense @ v) \
            <= 1e-14 * np.linalg.norm(v)


def test_b_operators_agree_across_meson_frames():
    # the pair rotation keeps the total number, so the capped coherent
    # state at the same fields is one state in both frames, and B0, B1,
    # B2 built from the slot profiles must give it the same expectations
    values = []
    for standing in (False, True):
        grid, _, nb, mb, ham = invariant_system(
            4, np.pi, (1.0, 1.0), (2, 3), standing)
        xi1, xi2 = random_arguments(grid, mb, seed=8)
        z1, z2 = random_arguments(grid, mb, seed=9)
        state, _ = coherent_initial(grid, nb, mb, ham.eps, 0.5 * z1,
                                    0.5 * z2)
        values.append([np.vdot(state, b @ state) for b in
                       b_operators(ham, xi1, xi2)])
    assert np.abs(np.subtract(*values)).max() <= 1e-12
    assert min(abs(v) for v in values[0]) >= 1e-3


def test_b_operators_and_relative_bounds_build_no_product_matrix(
        monkeypatch):
    grid, _, _, mb, ham = tiny_system(caps=(3, 4))
    xi1, xi2 = random_arguments(grid, mb, seed=2)
    want = [b.toarray() for b in b_operators(ham, xi1, xi2)]
    bounds = check_relative_bounds(ham, n_samples=20, seed=1)
    v = np.random.default_rng(6).standard_normal(ham.dim) + 0j

    def no_kron(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called")

    monkeypatch.setattr(sp, "kron", no_kron)
    got = b_operators(ham, xi1, xi2)
    for b, mat in zip(got, want):
        assert np.linalg.norm(b @ v - mat @ v) <= 1e-14 * np.linalg.norm(v)
    assert check_relative_bounds(ham, n_samples=20, seed=1) == bounds


def test_expansion_residual_rejects_an_empty_core():
    grid, _, _, mb, ham = tiny_system(caps=(3, 4))
    xi1, xi2 = random_arguments(grid, mb, seed=2)
    with pytest.raises(ValueError, match="core margin"):
        b_expansion_residual(ham, xi1, xi2, core_margin=(2, 5))


def test_conjugated_coupling_expansion_matches_matrix_route():
    # dual route: the Weyl-conjugated coupling assembled as a matrix
    # product against the closed-form eps expansion, on the leakage core
    _, _, _, mb, ham = make_system(
        2, np.pi / 2, 0.3, (2.0, 2.0), (12, 16), 0.5)
    xi1 = np.array([0.12 - 0.04j, 0.08 + 0.1j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.2 + 0.15j
    res = b_expansion_residual(ham, xi1, xi2, core_margin=(8, 10))
    assert res <= 1e-8


def test_duhamel_identity_small_residual():
    grid, params, nb, mb, ham = tiny_system()
    z1, z2 = tiny_fields(grid)
    state, deficit = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    assert deficit <= 1e-8
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25 - 0.2j
    report = duhamel_check(ham, state, xi1, xi2, t=0.5, n_nodes=33)
    assert abs(report.char_initial) <= 1.0 + 1e-12
    assert report.quadrature_estimate <= 1e-6
    assert report.residual <= 1e-6


def test_duhamel_without_coupling_is_time_independent():
    grid, params, nb, mb, ham = tiny_system(chi_amp=0.0)
    z1, z2 = tiny_fields(grid)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(2, dtype=complex)
    xi2[mb.modes] = 0.25 - 0.2j
    report = duhamel_check(ham, state, xi1, xi2, t=0.5, n_nodes=9)
    assert all(abs(c) <= 1e-12 for c in report.contributions)
    assert abs(report.lhs - report.char_initial) <= 1e-10
    assert report.residual <= 1e-10


def test_expansion_remainders_scale_with_eps():
    # after removing the eps^0 term the remainder is O(eps); after also
    # removing the eps^1 term it is O(eps^2)
    first, second = [], []
    for eps in (0.4, 0.2, 0.1):
        grid, params, nb, mb, ham = tiny_system(eps=eps)
        z1, z2 = tiny_fields(grid)
        state, _ = coherent_initial(grid, nb, mb, eps, z1, z2)
        xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        xi2 = np.zeros(2, dtype=complex)
        xi2[mb.modes] = 0.25 - 0.2j
        report = duhamel_check(ham, state, xi1, xi2, t=0.5, n_nodes=33)
        c0, c1, _ = report.contributions
        base = report.lhs - report.char_initial
        first.append(abs(base - c0))
        second.append(abs(base - c0 - c1))
    assert second[-1] >= 1e-8  # above the numerical floor
    # quadratic law is clean at every eps; the linear law needs eps small
    # enough that the quadratic term no longer dominates
    assert 3.4 <= second[0] / second[1] <= 4.6
    assert 3.4 <= second[1] / second[2] <= 4.6
    assert 1.4 <= first[1] / first[2] <= 2.7


def test_gronwall_weighted_propagator_bound():
    grid, params, nb, mb, ham = tiny_system(caps=(6, 8))
    for delta in (0.5, 1.0, 2.0):
        out = gronwall_bound_check(ham, delta, t=1.0, n_samples=100, seed=3)
        assert out["operator_ratio"] <= 1.01
        assert out["max_vector_ratio"] <= out["operator_ratio"] + 1e-12


def test_number_weight_diagonal_values():
    _, _, nb, mb, ham = tiny_system(caps=(2, 2))
    diag = number_weight_diagonal(ham)
    eps = ham.eps
    k = 0
    for occ1 in nb.occupations:
        for occ2 in mb.occupations:
            want = (eps * occ1.sum()) ** 2 + eps * occ2.sum() + eps
            assert abs(diag[k] - want) <= 1e-14
            k += 1


def test_propagate_and_duhamel_validate_inputs():
    grid, _, nb, mb, ham = tiny_system(caps=(2, 2))
    z1, z2 = tiny_fields(grid)
    state, _ = coherent_initial(grid, nb, mb, ham.eps, z1, z2)
    with pytest.raises(ValueError):
        propagate(ham, state, [0.5, 0.5])
    with pytest.raises(ValueError):
        duhamel_check(ham, state, z1, z2, t=0.5, n_nodes=10)
    with pytest.raises(StepSizeRejected):
        duhamel_check(ham, state, z1, z2, t=0.0, n_nodes=9)
