"""Sector ground states against the constrained classical minimum."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, eigvalsh

from nelson_lab import ground_state
from nelson_lab.classical_energy import minimize_constrained
from nelson_lab.discretization import (
    Grid, ModelParams, chi_gaussian, chi_sharp_band, covered_modes,
    one_body_hamiltonian, potential_preset)
from nelson_lab.errors import ConvergenceFailure
from nelson_lab.fock_space import (ProductOperator, coherent_state,
                                   sector_basis, truncated_basis)
from nelson_lab.ground_state import (
    active_meson_basis, lowest_eigenpair, theorem2_sweep)
from nelson_lab.quantum_dynamics import (FactoredHamiltonian,
                                         coherent_product_state)


def random_sparse_hermitian(dim, density, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(dim, dim, density=density, random_state=rng,
                    dtype=complex)
    mat = mat + 1j * sp.random(dim, dim, density=density, random_state=rng,
                               dtype=complex)
    return (mat + mat.getH()).tocsr()


def harmonic_system(chi_amp):
    grid = Grid(4, np.pi)
    return grid, harmonic_params(grid, chi_sharp_band(grid, chi_amp, 1.0, 1.0))


def harmonic_params(grid, chi):
    return ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0), chi=chi)


def sector_pair(grid, params, n, cap):
    """The factored sector operator in the standing-wave basis, and the
    same operator over plane waves on the same modes."""
    eps = params.charge ** 2 / n
    nb = sector_basis(grid.n_sites, n)
    modes = covered_modes(grid, params)
    op = FactoredHamiltonian(grid, params, eps, nb,
                             active_meson_basis(grid, params, cap))
    plane = FactoredHamiltonian(grid, params, eps, nb,
                                truncated_basis(modes.size, cap, modes=modes))
    return op, plane


# Grid(4) with a sharp band covers k = +-1 only; the Gaussian on Grid(6)
# covers every mode, k = 0 and Nyquist (unpaired) included
EVEN_CASES = [
    pytest.param(Grid(4, np.pi), "band", 3, 4, id="grid4-band"),
    pytest.param(Grid(6, np.pi), "gaussian", 2, 2, id="grid6-gaussian"),
]


def even_params(grid, kind):
    chi = (chi_sharp_band(grid, 0.5, 1.0, 1.0) if kind == "band"
           else chi_gaussian(grid, 0.5, 1.0))
    return harmonic_params(grid, chi)


class Counting(ProductOperator):
    """A `ProductOperator` that counts its products in `.count`."""

    count = 0

    def _matmat(self, x, out=None):
        self.count += 1
        return super()._matmat(x, out)


def counting(op):
    """`op` as a `Counting` operator: the pairs of a `ProductOperator`, or
    the one pair (csr(op), None) over (dim, 1), as `_lobpcg` wraps a
    matrix."""
    if isinstance(op, ProductOperator):
        return Counting(op.terms, op.dims)
    return Counting([(sp.csr_matrix(op), None)], (op.shape[0], 1))


def test_lowest_eigenpair_routes_agree():
    # LOBPCG against a full factorisation of the same matrix
    mat = random_sparse_hermitian(400, 0.02, seed=11)
    vals, vecs = eigh(mat.toarray())
    val, vec = lowest_eigenpair(mat)
    assert abs(val - vals[0]) <= 1e-9 * max(1.0, abs(vals[0]))
    assert abs(abs(np.vdot(vecs[:, 0], vec)) - 1.0) <= 1e-8
    res = np.linalg.norm(mat @ vec - val * vec)
    assert res <= 1e-8 * max(1.0, abs(val))
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10


@pytest.mark.parametrize("mat", [
    pytest.param(np.array([[2.0, 1.0], [1.0, 2.0]]), id="real-2x2"),
    pytest.param(np.array([[-0.7]]), id="real-1x1"),
    pytest.param(np.array([[1.0, 0.5 - 2.0j], [0.5 + 2.0j, -1.5]]),
                 id="complex-2x2"),
])
@pytest.mark.parametrize("tol", [1e-10, 1e-15])
def test_lowest_eigenpair_runs_lobpcg_at_small_dims(mat, tol):
    val, vec = lowest_eigenpair(mat, tol=tol)
    assert vec.dtype == mat.dtype
    assert abs(val - eigvalsh(mat)[0]) <= 1e-15 * max(1.0, abs(val))
    assert np.linalg.norm(mat @ vec - val * vec) <= 1e-14


def test_lowest_eigenpair_reports_nonconvergence():
    mat = random_sparse_hermitian(600, 0.01, seed=5)
    with pytest.raises(ConvergenceFailure):
        lowest_eigenpair(mat, tol=1e-15, maxiter=1)


def test_lowest_eigenpair_checks_the_residual_lobpcg_returns():
    # a path Laplacian at a loose tolerance: LOBPCG stops above the 1e-7
    # residual bound, and the pair is refused with the residual it returns
    dim, tol = 200, 1e-4
    lap = sp.diags([-np.ones(dim - 1), 2.0 * np.ones(dim), -np.ones(dim - 1)],
                   [-1, 0, 1], format="csr")
    v0 = np.random.default_rng(3).standard_normal(dim)
    value, vec, residual = ground_state._lobpcg(lap, v0, tol, 10 * dim)
    bound = max(1.0, abs(value))
    assert residual == pytest.approx(np.linalg.norm(lap @ vec - value * vec),
                                     rel=1e-9)
    assert 1e-7 * bound < residual <= tol * bound
    with pytest.raises(ConvergenceFailure, match="residual"):
        lowest_eigenpair(lap, tol=tol, v0=v0)


def test_sector_energies_approach_classical_minimum():
    grid, params = harmonic_system(0.5)
    report = theorem2_sweep(grid, params, [1, 2, 3, 4, 5], meson_cap=7)
    gaps = [r.gap for r in report.records]
    # scaled sector energies converge monotonically toward the classical
    # minimum as the nucleon number grows
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a * (1.0 + 1e-9)
    assert gaps[-1] <= gaps[0] / 3.0
    for r in report.records:
        assert r.e_quantum <= r.e_coherent + 1e-6  # variational bound
        assert abs(r.eps * r.n - params.charge ** 2) <= 1e-14
    assert report.cap_shift <= 1e-4
    assert report.e_classical == pytest.approx(
        min(r.e_coherent for r in report.records), abs=5e-3)


def test_free_sector_energy_is_exact():
    grid, params = harmonic_system(0.0)
    e0 = eigh(one_body_hamiltonian(grid, params))[0][0]
    want = params.charge ** 2 * e0
    # the solve starts at the coherent state, which here is the exact
    # ground state to the minimiser's tolerance: a degenerate start
    report = theorem2_sweep(grid, params, [1, 2, 3], meson_cap=0)
    assert abs(report.e_classical - want) <= 1e-9
    for r in report.records:
        assert abs(r.e_quantum - want) <= 1e-9
        assert r.gap <= 1e-9


def test_sweep_solves_the_smallest_sectors():
    # two sites and no mesons: sector dims 2, 3 and 4
    grid = Grid(2, np.pi / 2)
    params = harmonic_params(grid, chi_sharp_band(grid, 0.3, 2.0, 2.0))
    report = theorem2_sweep(grid, params, [1, 2, 3], meson_cap=0)
    assert [r.dim for r in report.records] == [2, 3, 4]
    for r in report.records:
        ham = ground_state._sector_hamiltonian(grid, params, r.n, 0)
        assert abs(r.e_quantum - eigvalsh(ham.toarray())[0]) <= 1e-12
    # a numpy array of nucleon numbers reads as the list does
    again = theorem2_sweep(grid, params, np.arange(1, 4), meson_cap=0)
    assert again.records == report.records


def test_coherent_upper_bound_dominates_ground_energy():
    grid, params = harmonic_system(0.5)
    n = 3
    eps = params.charge ** 2 / n
    ham = FactoredHamiltonian(grid, params, eps, sector_basis(grid.n_sites, n),
                              active_meson_basis(grid, params, 6))
    e_q, _ = lowest_eigenpair(ham)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z1 *= params.charge / (np.sqrt(grid.dx) * np.linalg.norm(z1))
        z2 = np.zeros(4, dtype=complex)
        z2[ham.meson_basis.modes] = 0.3 * (
            rng.standard_normal(2) + 1j * rng.standard_normal(2))
        phi, _ = coherent_product_state(ham, z1, z2)
        assert np.vdot(phi, ham @ phi).real >= e_q - 1e-10


def test_sector_solves_build_no_nucleon_ladder(lowering_builds):
    # Theorem 2 reads only the Hamiltonian of each sector, which asks for
    # no lowering table of its nucleon sector, where none exists
    grid, params = harmonic_system(0.5)
    theorem2_sweep(grid, params, [1, 2], meson_cap=3)
    # one meson table for each of the three solves, cap-shift included
    assert [basis.kind for basis in lowering_builds] == ["truncated"] * 3
    assert all(basis.modes is not None for basis in lowering_builds)


def test_theorem2_sweep_validates_input():
    grid, params = harmonic_system(0.5)
    for bad in ([], np.array([]), [0, 1], [1, 2.5], [1, float("nan")],
                np.array([0, 1])):
        with pytest.raises(ValueError):
            theorem2_sweep(grid, params, bad, meson_cap=3)


@pytest.mark.parametrize("grid, kind, n, cap", EVEN_CASES)
def test_factored_standing_wave_operator_matches_plane_wave_assembly(
        grid, kind, n, cap):
    params = even_params(grid, kind)
    op, plane = sector_pair(grid, params, n, cap)
    dense = op.toarray()
    assert op.dtype == np.float64 and dense.dtype == np.float64
    assert np.abs(dense - dense.T).max() == 0.0
    # the pair rotation is unitary on the capped meson space
    want = eigvalsh(plane.toarray())
    assert np.abs(eigvalsh(dense) - want).max() <= 1e-12
    if kind == "gaussian":
        assert {0, grid.n_sites // 2} <= set(op.meson_basis.modes)


def test_uneven_coupling_gives_complex_operator_with_same_spectrum():
    grid = Grid(4, np.pi)
    params = harmonic_params(grid, np.array([0.0, 0.5, 0.0, 0.2]))
    op, plane = sector_pair(grid, params, 3, 4)
    assert op.dtype == np.complex128
    dense = op.toarray()
    want = eigvalsh(plane.toarray())
    assert np.abs(eigvalsh(dense) - want).max() <= 1e-12
    e_op, _ = lowest_eigenpair(op)
    e_plane, _ = lowest_eigenpair(plane)
    assert abs(e_op - e_plane) <= 1e-12
    assert abs(e_op - want[0]) <= 1e-12


@pytest.mark.parametrize("grid, kind, n, cap", EVEN_CASES)
def test_rotated_coherent_bound_equals_plane_wave_expectation(
        grid, kind, n, cap):
    params = even_params(grid, kind)
    op, plane = sector_pair(grid, params, n, cap)
    modes = plane.meson_basis.modes
    rng = np.random.default_rng(7)
    for _ in range(4):
        z1 = rng.standard_normal(grid.n_sites) \
            + 1j * rng.standard_normal(grid.n_sites)
        z2 = np.zeros(grid.n_sites, dtype=complex)
        z2[modes] = 0.3 * (rng.standard_normal(modes.size)
                           + 1j * rng.standard_normal(modes.size))
        v1, _ = coherent_state(grid, plane.nucleon_basis, z1, plane.eps)
        v2, _ = coherent_state(grid, plane.meson_basis, z2, plane.eps)
        phi = np.kron(v1, v2)
        want = np.vdot(phi, plane @ phi).real
        rotated, _ = coherent_product_state(op, z1, z2)
        assert abs(np.vdot(rotated, op @ rotated).real - want) <= 1e-12


def test_sweep_solves_a_real_operator_without_kron(monkeypatch):
    grid, params = harmonic_system(0.5)
    want = [eigvalsh(sector_pair(grid, params, n, 7)[1].toarray())[0]
            for n in (1, 2, 3)]
    seen = []

    def spy(matrix, *args, **kwargs):
        seen.append(matrix.dtype)
        # the real operator starts from the real coherent vector
        assert kwargs["v0"].dtype == np.float64
        return lowest_eigenpair(matrix, *args, **kwargs)

    def no_kron(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called")

    monkeypatch.setattr(ground_state, "lowest_eigenpair", spy)
    monkeypatch.setattr(sp, "kron", no_kron)
    report = theorem2_sweep(grid, params, [1, 2, 3], meson_cap=7)
    for r, e_plane in zip(report.records, want):
        assert abs(r.e_quantum - e_plane) <= 1e-12
    # three sectors and the cap-shift solve
    assert len(seen) == 4 and all(d == np.float64 for d in seen)


def test_coherent_start_needs_fewer_matvecs():
    grid, params = harmonic_system(0.5)
    n = 4
    ham = FactoredHamiltonian(grid, params, params.charge ** 2 / n,
                              sector_basis(grid.n_sites, n),
                              active_meson_basis(grid, params, 7))
    assert ham.dtype == np.float64
    best = minimize_constrained(grid, params)
    start, _ = coherent_product_state(ham, best.z1, best.z2)
    assert np.linalg.norm(start.imag) <= 1e-7 * np.linalg.norm(start)
    random_op, coherent_op = counting(ham), counting(ham)
    e_random, _ = lowest_eigenpair(random_op)
    e_coherent, _ = lowest_eigenpair(coherent_op, v0=start.real)
    assert abs(e_coherent - e_random) <= 1e-12
    assert coherent_op.count < random_op.count


def test_complex_plane_wave_operator_takes_the_complex_start():
    grid, params = harmonic_system(0.5)
    op, plane = sector_pair(grid, params, 3, 7)
    assert op.dtype == np.float64 and plane.dtype == np.complex128
    best = minimize_constrained(grid, params)
    start, _ = coherent_product_state(plane, best.z1, best.z2)
    assert np.iscomplexobj(start)
    e_plane, vec = lowest_eigenpair(plane, v0=start)
    e_op, _ = lowest_eigenpair(
        op, v0=coherent_product_state(op, best.z1, best.z2)[0].real)
    assert abs(e_plane - e_op) <= 1e-12
    assert np.linalg.norm(plane @ vec - e_plane * vec) <= 1e-7


def test_lobpcg_meets_the_tolerance_in_fewer_matvecs_than_arpack():
    # one solve of the t2-sectors benchmark workload (n = 4, meson cap 7):
    # from the coherent start, ARPACK's implicitly restarted Lanczos took
    # 61 matvecs to this tolerance
    grid = Grid(8, np.pi)
    params = harmonic_params(grid, chi_sharp_band(grid, 0.5, 1.0, 1.0))
    n, tol = 4, 1e-10
    ham = FactoredHamiltonian(grid, params, params.charge ** 2 / n,
                              sector_basis(grid.n_sites, n),
                              active_meson_basis(grid, params, 7))
    assert ham.dim == 11880 and ham.dtype == np.float64
    best = minimize_constrained(grid, params, seed=1)
    start = coherent_product_state(ham, best.z1, best.z2)[0].real
    counted = counting(ham)
    value, vec = lowest_eigenpair(counted, tol=tol, v0=start)
    assert counted.count < 61
    residual = np.linalg.norm(ham @ vec - value * vec)
    assert residual <= tol * max(1.0, abs(value))


def test_lobpcg_agrees_with_dense_on_real_and_complex_operators():
    grid, params = harmonic_system(0.5)
    op, plane = sector_pair(grid, params, 4, 7)
    assert op.dtype == np.float64 and plane.dtype == np.complex128
    for ham in (op, plane):
        assert ham.dim == 1260
        want = eigvalsh(ham.toarray())[0]
        value, vec = lowest_eigenpair(ham)
        assert vec.dtype == ham.dtype
        assert abs(value - want) <= 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def test_lobpcg_meets_the_tolerance_on_h_x_after_a_long_run():
    # a path Laplacian has a small relative gap, so the iteration runs for
    # thousands of steps; its updates then carry x and H x off by more
    # than a tolerance near roundoff, which the pair must still meet
    dim, tol = 200, 1e-14
    lap = sp.diags([-np.ones(dim - 1), 2.0 * np.ones(dim), -np.ones(dim - 1)],
                   [-1, 0, 1], format="csr")
    counted = counting(lap)
    v0 = np.random.default_rng(3).standard_normal(dim)
    value, vec = lowest_eigenpair(counted, tol=tol, maxiter=10000, v0=v0)
    assert counted.count > 2000
    residual = np.linalg.norm(lap @ vec - value * vec)
    assert residual <= tol * max(1.0, abs(value))
    assert abs(value - eigvalsh(lap.toarray())[0]) <= 1e-14
