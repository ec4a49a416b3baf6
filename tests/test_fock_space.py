"""Fock bases, second quantisation, coherent states, Weyl operators."""

import numpy as np
import pytest
import scipy.sparse as sp
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from scipy.linalg import expm
from scipy.special import pdtrc
from scipy.stats import poisson

from nelson_lab import fock_space
from nelson_lab.discretization import (
    Grid, ModelParams, chi_sharp_band, coupling_weight, dispersion,
    potential_preset)
from nelson_lab.errors import (
    NelsonLabError, SectorBasisUnsupported, StepSizeRejected,
    TruncationInsufficient)
from nelson_lab.fock_space import (
    FockBasis, ProductOperator, _accumulate, _expm_hermitian,
    _gershgorin_interval, _occupations, _slot_field, annihilator,
    coherent_state, dgamma_diagonal, ladder, occupation_cap,
    resolvent_bound_ratio, second_quantize, sector_basis, truncated_basis,
    weyl_conjugation_identities, weyl_generator)
from nelson_lab.quantum_dynamics import (FactoredHamiltonian,
                                         active_meson_basis,
                                         check_relative_bounds,
                                         weyl_matrix_elements)


def small_model(grid, amplitude=0.5):
    return ModelParams(
        mass=1.0, meson_mass=1.0, charge=1.0,
        potential=potential_preset(grid, "harmonic", 1.0),
        chi=chi_sharp_band(grid, amplitude, 1.0, 1.0))


# ---------------------------------------------------------------------------
# bases


def test_sector_dimensions_and_totals():
    for n_modes, total in [(1, 0), (1, 5), (3, 2), (4, 6)]:
        basis = sector_basis(n_modes, total)
        assert basis.dim == comb(total + n_modes - 1, n_modes - 1)
        assert np.all(basis.occupations.sum(axis=1) == total)


def test_truncated_dimensions_and_order():
    basis = truncated_basis(3, 2)
    assert basis.dim == 1 + 3 + 6
    totals = basis.occupations.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)  # ordered by total
    assert totals[0] == 0


@pytest.mark.parametrize("n_modes, totals", [
    (1, [0]), (1, range(4)), (3, [0]), (4, [2]), (2, range(8)),
    (4, range(6)), (8, [3]), (5, [0, 2, 3])])
def test_occupations_match_the_enumeration_of_bar_positions(n_modes, totals):
    # the rows of a total are the placements of n_modes - 1 bars among
    # total + n_modes - 1 slots, in the lexicographic order of the bars
    want = []
    for total in totals:
        slots = total + n_modes - 1
        for bars in combinations(range(slots), n_modes - 1):
            edges = (-1, *bars, slots)
            want.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    got = _occupations(n_modes, totals)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.array(want, dtype=np.int64))


def test_index_roundtrip_and_miss():
    basis = truncated_basis(4, 3)
    idx = basis.index_of(basis.occupations)
    assert np.array_equal(idx, np.arange(basis.dim))
    with pytest.raises(ValueError):
        basis.index_of(np.array([[4, 0, 0, 0]]))


def test_occupation_cap_matches_poisson_tail():
    # the smallest cap with poisson.sf(cap, mean) <= budget, read off a
    # table of scipy.stats tails
    means = np.concatenate([[0.0, 1e-9], np.arange(0.5, 200.5, 0.5)])
    caps = np.arange(601)
    tails = poisson.sf(caps[:, None], means[None, :])
    for budget in 10.0 ** -np.arange(2, 13):
        want = np.argmax(tails <= budget, axis=0)
        assert np.all(tails[want, np.arange(means.size)] <= budget)
        got = [occupation_cap(mean, budget) for mean in means]
        assert got == want.tolist()


def test_occupation_cap_past_its_search_is_typed():
    with pytest.raises(TruncationInsufficient) as exc:
        occupation_cap(50.0, 1e-6, cap_max=10)
    assert exc.value.deficit == pdtrc(10, 50.0)


# ---------------------------------------------------------------------------
# operators


def test_ladder_single_mode_amplitudes():
    eps = 0.3
    basis = truncated_basis(1, 3)
    a = ladder(basis, 0, eps).toarray()
    want = np.zeros((4, 4))
    for n in range(1, 4):
        want[n - 1, n] = np.sqrt(eps * n)
    assert np.allclose(a, want)


def test_ladder_commutator_away_from_cap():
    eps = 0.7
    basis = truncated_basis(2, 4)
    a0 = ladder(basis, 0, eps)
    comm = (a0 @ a0.getH() - a0.getH() @ a0).toarray()
    interior = basis.occupations.sum(axis=1) < basis.cap
    assert np.allclose(comm[np.ix_(interior, interior)],
                       eps * np.eye(basis.dim)[np.ix_(interior, interior)])


def test_ladder_rejects_sector():
    with pytest.raises(SectorBasisUnsupported):
        ladder(sector_basis(2, 3), 0, 1.0)


def test_number_operators():
    eps = 0.5
    basis = truncated_basis(3, 2)
    # the number operators are dGamma of the identity and of a projector
    total = dgamma_diagonal(basis, np.ones(3), eps)
    assert np.allclose(total, eps * basis.occupations.sum(axis=1))
    per = dgamma_diagonal(basis, np.array([0.0, 1.0, 0.0]), eps)
    assert np.allclose(per, eps * basis.occupations[:, 1])
    vals = np.array([2.0, -1.0, 0.5])
    dg = dgamma_diagonal(basis, vals, eps)
    assert np.allclose(dg, eps * basis.occupations @ vals)


def test_second_quantize_against_ladder_products():
    # dGamma(A) must equal eps * sum_ij A_ij b_i* b_j assembled by hand
    rng = np.random.default_rng(4)
    eps = 0.6
    basis = truncated_basis(3, 3)
    a_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = second_quantize(basis, a_mat, eps).toarray()
    b_ops = [ladder(basis, m, 1.0) for m in range(3)]
    want = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(3):
        for j in range(3):
            want += eps * a_mat[i, j] * (b_ops[i].getH() @ b_ops[j]).toarray()
    assert np.allclose(got, want, atol=1e-13)


def hop(basis, occ, j, i=None):
    """Row of `occ` with a quantum of mode j removed, or moved on to mode
    i, found by its full occupation row (`index_of`)."""
    new = occ.copy()
    new[j] -= 1
    if i is not None:
        new[i] += 1
    return basis.index_of(new)[0]


def reference_ladder(basis, mode, eps):
    """a_mode built entry by entry from the occupation rows."""
    want = np.zeros((basis.dim, basis.dim))
    for col, occ in enumerate(basis.occupations):
        if occ[mode]:
            want[hop(basis, occ, mode), col] = np.sqrt(eps * occ[mode])
    return want


def reference_second_quantize(basis, a_mat, eps):
    """eps sum_ij A_ij b_i* b_j built entry by entry from the occupation
    rows."""
    want = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.occupations):
        for i in range(basis.n_modes):
            for j in range(basis.n_modes):
                if occ[j]:
                    n_i = occ[i] + (i != j)
                    want[hop(basis, occ, j, i), col] += (
                        eps * a_mat[i, j] * np.sqrt(occ[j] * n_i))
    return want


@pytest.mark.parametrize("kind", ["real", "complex", "diagonal"])
@pytest.mark.parametrize("basis", [
    sector_basis(3, 3), truncated_basis(3, 3), sector_basis(1, 4),
    truncated_basis(1, 4)],
    ids=["sector", "truncated", "one-mode-sector", "one-mode"])
def test_hops_against_occupation_rows(basis, kind):
    # ladder and second_quantize find their target rows by key shifts;
    # the reference moves the quanta in the occupation rows themselves
    eps = 0.6
    rng = np.random.default_rng(21)
    n = basis.n_modes
    a_mat = rng.standard_normal((n, n))
    if kind == "complex":
        a_mat = a_mat + 1j * rng.standard_normal((n, n))
    elif kind == "diagonal":
        a_mat = np.diag(np.diag(a_mat))
    got = second_quantize(basis, a_mat, eps)
    assert got.dtype == a_mat.dtype
    # entry for entry the same arithmetic, but the diagonal sums its
    # terms in another order: a few ulps of entries below 10
    assert np.abs(got.toarray()
                  - reference_second_quantize(basis, a_mat, eps)).max() \
        <= 1e-14
    if basis.kind == "truncated":
        for mode in range(n):
            assert np.array_equal(ladder(basis, mode, eps).toarray(),
                                  reference_ladder(basis, mode, eps))


def test_second_quantize_on_sector_matches_truncated_block():
    rng = np.random.default_rng(8)
    eps = 0.4
    n_modes, total = 3, 2
    a_mat = rng.standard_normal((n_modes, n_modes))
    a_mat = a_mat + a_mat.T
    sec = sector_basis(n_modes, total)
    trunc = truncated_basis(n_modes, total)
    rows = trunc.index_of(sec.occupations)
    big = second_quantize(trunc, a_mat, eps).toarray()
    small = second_quantize(sec, a_mat, eps).toarray()
    assert np.allclose(small, big[np.ix_(rows, rows)])


def test_second_quantize_hermitian_and_number_conserving():
    rng = np.random.default_rng(2)
    basis = truncated_basis(3, 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a + a.conj().T
    dg = second_quantize(basis, a, 0.5)
    assert abs(dg - dg.getH()).max() <= 1e-13
    n_tot = sp.diags(dgamma_diagonal(basis, np.ones(3), 0.5), format="csr")
    assert abs(dg @ n_tot - n_tot @ dg).max() <= 1e-13


def test_interaction_halves_against_explicit_assembly():
    grid = Grid(4, np.pi)
    params = small_model(grid)
    eps = 0.5
    nb = truncated_basis(grid.n_sites, 2)
    w = coupling_weight(grid, params)
    modes = np.nonzero(w != 0)[0]
    mb = truncated_basis(modes.size, 3, modes=modes)
    coupling = FactoredHamiltonian(grid, params, eps, nb, mb).coupling

    dim = nb.dim * mb.dim
    creation = np.zeros((dim, dim), dtype=complex)
    for p, m in enumerate(modes):
        rho = nb.occupations @ grid.phases[m]
        d_m = np.diag(eps * rho)
        adag = ladder(mb, p, eps).getH().toarray()
        creation += np.sqrt(grid.dk) * w[m] * np.kron(d_m, adag)
    want = creation + creation.conj().T
    full = coupling.toarray()
    assert np.allclose(full, want, rtol=0, atol=1e-13)
    assert np.abs(full - full.conj().T).max() <= 1e-13


def random_csr(shape, complex_entries, index_dtype, seed, lower=False):
    """A random CSR matrix with the given index dtype, lower triangular
    when asked for (its leading rows then reach only leading columns)."""
    m = sp.random(*shape, density=0.4, random_state=seed, format="csr")
    if complex_entries:
        m = m + 1j * sp.random(*shape, density=0.4, random_state=seed + 1,
                               format="csr")
    m = (sp.tril(m) if lower else m).tocsr()
    m.indptr = m.indptr.astype(index_dtype)
    m.indices = m.indices.astype(index_dtype)
    return m


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("m_complex, x_complex", [
    (False, False), (True, True), (False, True), (True, False)])
def test_accumulate_adds_the_public_product(m_complex, x_complex,
                                            index_dtype):
    # _accumulate calls a private scipy kernel: against the public m @ x,
    # on every dtype pairing (the kernel promotes a real m on a complex
    # block), both index widths, and leading-row slices
    rng = np.random.default_rng(19)

    def draw(shape, complex_entries):
        real = rng.standard_normal(shape)
        return real + 1j * rng.standard_normal(shape) if complex_entries \
            else real

    m = random_csr((9, 7), m_complex, index_dtype, seed=6)
    assert m.indices.dtype == index_dtype
    x = draw((7, 3), x_complex)
    y0 = draw((9, 3), m_complex or x_complex)
    y = y0.copy()
    _accumulate(m, x, y)
    assert np.abs(y - (y0 + m @ x)).max() <= 1e-14
    lead = y0[:4].copy()
    _accumulate(m, x, lead)
    assert np.abs(lead - (y0 + m @ x)[:4]).max() <= 1e-14
    # a lower-triangular m on the leading rows of x alone, as the
    # lowering series applies its terms
    m = random_csr((9, 9), m_complex, index_dtype, seed=8, lower=True)
    x = draw((9, 2), x_complex)
    lead = y0[:5, :2].copy()
    _accumulate(m, x[:5], lead)
    assert np.abs(lead - (y0[:5, :2] + m[:5] @ x)).max() <= 1e-14


def test_scipy_private_kernel_is_imported_in_one_module():
    # a scipy release that moves csr_matvecs breaks one import, in
    # fock_space, and the contract test above
    src = Path(fock_space.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if "_sparsetools" in p.read_text()]
    assert users == ["fock_space.py"]


def mixed_product_operator(complex_diagonal):
    """A `ProductOperator` with every factor kind, with non-symmetric
    sparse factors so that a missing transpose shows, and its dense
    matrix from np.kron."""
    rng = np.random.default_rng(12)
    dims = (5, 3)
    left = sp.random(5, 5, density=0.5, random_state=1, format="csr")
    right = sp.random(3, 3, density=0.6, random_state=2, format="csr")
    diag_n = rng.standard_normal(5)
    if complex_diagonal:
        diag_n = diag_n + 1j * rng.standard_normal(5)
    diag_m = rng.standard_normal(3)
    terms = [(left, right), (None, right.T), (left, None), (diag_n, right),
             (left, diag_m), (diag_n, None), (None, None)]
    return pair_operator(terms, dims)


def pair_operator(terms, dims):
    """The `ProductOperator` of the given pairs and its dense matrix from
    np.kron."""
    def dense(factor, n):
        if factor is None:
            return np.eye(n)
        return np.diag(factor) if factor.ndim == 1 else factor.toarray()

    want = sum((np.kron(dense(a, dims[0]), dense(b, dims[1]))
                for a, b in terms), np.zeros((dims[0] * dims[1],) * 2))
    return ProductOperator(terms, dims), want


def test_product_operator_matches_kron_of_its_factors():
    rng = np.random.default_rng(12)
    op, want = mixed_product_operator(complex_diagonal=True)
    assert op.dtype == np.complex128 and op.dim == 15
    assert np.abs(op.toarray() - want).max() <= 1e-14
    for v in (rng.standard_normal(15),
              rng.standard_normal(15) + 1j * rng.standard_normal(15)):
        assert np.linalg.norm(op @ v - want @ v) <= 1e-13
    # a coupling-free model leaves the coupling with no pairs at all
    empty = ProductOperator([], (5, 3))
    assert not np.any(empty @ v) and not np.any(empty.toarray())


@pytest.mark.parametrize("complex_diagonal", [False, True])
def test_product_operator_reuses_its_workspace(complex_diagonal):
    # the meson-major copy and its sum are kept from one product to the
    # next; each result is a fresh array that later products leave alone,
    # whatever their column count and dtype, in either order
    rng = np.random.default_rng(13)
    op, want = mixed_product_operator(complex_diagonal)
    assert op.dtype == (np.complex128 if complex_diagonal else np.float64)
    # two products in a row of each column count and dtype, so that the
    # second reuses the workspace of the first
    inputs = []
    for shape in ((15,), (15, 1), (15, 3)):
        real = rng.standard_normal((2,) + shape)
        inputs += [*real, *(real + 1j * rng.standard_normal((2,) + shape))]
    results = [op @ x for x in inputs]
    for x, got in zip(inputs, results):
        assert got.shape == x.shape
        assert np.linalg.norm(got - want @ x) <= 1e-13 * np.linalg.norm(x)
    again = [op @ x for x in reversed(inputs)]
    for got, first in zip(reversed(again), results):
        assert np.array_equal(got, first)


def sum_cases():
    """Pair lists over (5, 3) whose products start their sums from each
    kind of pair: the meson diagonals, a meson-side pair with a diagonal
    or a matrix on the left, the identity, and a real term ahead of a
    complex one; and a meson-side pair over (1, 3), where the transposed
    meson-major sum is itself C-contiguous."""
    rng = np.random.default_rng(14)
    left = sp.random(5, 5, density=0.5, random_state=3, format="csr")
    right = sp.random(3, 3, density=0.6, random_state=4, format="csr")
    diag_n, diag_m, diag_m2 = (rng.standard_normal(n) for n in (5, 3, 3))
    cdiag_n = diag_n + 1j * rng.standard_normal(5)
    cases = {
        "meson-diagonal": [(None, diag_m), (left, right), (diag_n, right),
                           (left, None)],
        "two-meson-diagonals": [(None, diag_m), (diag_n, right),
                                (None, diag_m2)],
        "meson-side-only": [(diag_n, right), (None, right.T)],
        "matrix-pair-only": [(left, right)],
        "identity-first": [(None, None), (left, diag_m)],
        "real-then-complex": [(left, None), (cdiag_n, None),
                              (None, diag_m)],
        "real-then-complex-meson": [(left, None), (cdiag_n, right),
                                    (None, diag_m)],
    }
    cases = {name: (terms, (5, 3)) for name, terms in cases.items()}
    cases["one-nucleon-state"] = ([(np.array([2.0]), right)], (1, 3))
    return cases


@pytest.mark.parametrize("case", sorted(sum_cases()))
def test_product_operator_starts_its_sums_from_any_pair(case):
    # whichever pair comes first, the result has the operator's dtype,
    # leaves the input alone and is no view of the workspace
    op, want = pair_operator(*sum_cases()[case])
    rng = np.random.default_rng(15)
    for shape in ((op.dim,), (op.dim, 2)):
        real = rng.standard_normal(shape)
        for x in (real, real + 1j * rng.standard_normal(shape)):
            kept = x.copy()
            got = op @ x
            assert np.array_equal(x, kept)
            assert got.dtype == np.result_type(op.dtype, x.dtype)
            assert np.linalg.norm(got - want @ x) <= 1e-13 * np.linalg.norm(x)
            first = got.copy()
            op @ (2.0 * x)
            assert np.array_equal(got, first)
            if op._workspace is not None:
                assert not np.shares_memory(got, op._workspace)


@pytest.mark.parametrize("build", ["mixed", "hamiltonian"])
def test_product_operator_ignores_what_its_workspace_held(build):
    # a product overwrites the workspace before it reads it: one filled
    # with NaN gives the bits of a fresh operator
    def fresh():
        if build == "mixed":
            terms = [(None, np.arange(3.0))] + list(
                mixed_product_operator(True)[0].terms)
            return ProductOperator(terms, (5, 3))
        grid = Grid(4, np.pi)
        params = small_model(grid)
        return FactoredHamiltonian(grid, params, 0.4, truncated_basis(4, 2),
                                   active_meson_basis(grid, params, 3))

    op = fresh()
    rng = np.random.default_rng(16)
    for shape in ((op.dim,), (op.dim, 3)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = fresh() @ x
        op @ x
        op._workspace.fill(np.nan)
        assert np.array_equal(op @ x, want)


PRODUCT_KINDS = ["mixed", "mixed-meson-diagonal", "nucleon-only"]


def product_kind(kind, complex_diagonal):
    """`mixed_product_operator`, alone or with the meson diagonal
    I (x) diag(R) that starts the meson-major sum, or its pairs without a
    meson matrix, which start the result at zero."""
    op, _ = mixed_product_operator(complex_diagonal)
    terms = op.terms
    if kind == "mixed-meson-diagonal":
        terms = [(None, np.arange(3.0))] + terms
    elif kind == "nucleon-only":
        terms = [(left, right) for left, right in terms
                 if right is None or right.ndim == 1]
    return pair_operator(terms, op.dims)


@pytest.mark.parametrize("complex_diagonal", [False, True])
@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_into_out_ignores_what_out_and_the_workspace_held(
        kind, complex_diagonal):
    # out and the workspace are written before they are read: filled with
    # NaN, they give the bits of a fresh operator's product
    op, want = product_kind(kind, complex_diagonal)
    rng = np.random.default_rng(17)
    for k in (1, 3):
        real = rng.standard_normal((op.dim, k))
        for x in (real, real + 1j * rng.standard_normal((op.dim, k))):
            fresh = ProductOperator(op.terms, op.dims)._matmat(x)
            assert np.linalg.norm(fresh - want @ x) \
                <= 1e-13 * np.linalg.norm(x)
            op._matmat(x)
            if op._workspace is not None:
                op._workspace.fill(np.nan)
            out = np.full(x.shape, np.nan, dtype=fresh.dtype)
            kept = x.copy()
            assert op._matmat(x, out=out) is out
            assert np.array_equal(out, fresh)
            assert np.array_equal(x, kept)


def test_product_into_out_checks_out():
    # an out that shares memory with x, or has another dtype, shape or
    # layout than the product, raises before anything is written
    op, _ = mixed_product_operator(complex_diagonal=False)
    block = np.random.default_rng(18).standard_normal((op.dim + 1, 2))
    x, kept = block[:op.dim], block[:op.dim].copy()
    for out in (x, block[1:], np.empty((op.dim, 2), complex),
                np.empty((op.dim, 3)), np.empty((2, op.dim)).T):
        with pytest.raises(ValueError, match="shares no memory with x"):
            op._matmat(x, out=out)
    assert np.array_equal(block[:op.dim], kept)


def test_interaction_requires_covering_modes():
    grid = Grid(4, np.pi)
    params = small_model(grid)
    nb = truncated_basis(grid.n_sites, 1)
    mb = truncated_basis(1, 2, modes=np.array([0]))  # k=0 mode carries no chi
    with pytest.raises(ValueError, match="outside the basis modes"):
        FactoredHamiltonian(grid, params, 0.5, nb, mb)
    over_sites = truncated_basis(grid.n_sites, 2)
    with pytest.raises(ValueError, match="must carry grid mode indices"):
        FactoredHamiltonian(grid, params, 0.5, nb, over_sites)


def test_slot_field_rotates_every_column_of_a_2d_field():
    # six sites: modes 1 and 5 form a standing pair, 3 (Nyquist) stays a
    # plane wave; each column is rotated as a 1d field is
    grid = Grid(6, np.pi)
    basis = truncated_basis(3, 2, modes=np.array([1, 3, 5]), standing=True)
    rng = np.random.default_rng(22)
    fields = np.zeros((grid.n_sites, 4), dtype=complex)
    fields[basis.modes] = rng.standard_normal((3, 4)) \
        + 1j * rng.standard_normal((3, 4))
    quad, got = _slot_field(grid, basis, fields, "field")
    assert quad == grid.dk and got.shape == (3, 4)
    for col in range(4):
        want = _slot_field(grid, basis, fields[:, col], "field")[1]
        assert np.array_equal(got[:, col], want)


# ---------------------------------------------------------------------------
# coherent states


def test_meson_coherent_matches_poisson_statistics():
    grid = Grid(4, np.pi)
    eps = 0.5
    modes = np.array([1, 3])
    basis = truncated_basis(2, 16, modes=modes)
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.4 + 0.2j
    z2[3] = -0.3j
    vec, deficit = coherent_state(grid, basis, z2, eps)
    alpha = z2[modes] * np.sqrt(grid.dk / eps)
    mean_total = float(np.sum(np.abs(alpha) ** 2))
    # the lost mass is exactly the Poisson tail of the total occupation
    assert abs(deficit - poisson.sf(basis.cap, mean_total)) <= 1e-12
    # single-mode marginals are Poisson
    occ = basis.occupations
    for p in range(2):
        lam = abs(alpha[p]) ** 2
        for n in range(3):
            got = float(np.sum(np.abs(vec[occ[:, p] == n]) ** 2))
            want = poisson.pmf(n, lam)
            assert abs(got - want) <= 1e-8
    # mean field reproduces z2 on the covered modes
    for p, m in enumerate(modes):
        a_p = ladder(basis, p, eps)
        got = np.vdot(vec, a_p @ vec) / np.sqrt(grid.dk)
        assert abs(got - z2[m]) <= 1e-8


def test_meson_coherent_support_check_and_budget():
    grid = Grid(4, np.pi)
    basis = truncated_basis(1, 4, modes=np.array([1]))
    bad = np.zeros(grid.n_sites, dtype=complex)
    bad[2] = 1.0
    with pytest.raises(ValueError):
        coherent_state(grid, basis, bad, 0.5)
    big = np.zeros(grid.n_sites, dtype=complex)
    big[1] = 3.0
    # the mass beyond the cap is reported for the caller's budget
    _, deficit = coherent_state(grid, basis, big, 0.1)
    assert deficit > 1e-6


def test_nucleon_sector_state_exact():
    grid = Grid(4, np.pi)
    rng = np.random.default_rng(5)
    z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    n = 3
    basis = sector_basis(grid.n_sites, n)
    vec, deficit = coherent_state(grid, basis, z1, 0.5)
    assert deficit == 0.0
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-13
    # occupation marginals are multinomial: E[n_j] = n |u_j|^2
    u = np.sqrt(grid.dx) * z1 / (np.sqrt(grid.dx) * np.linalg.norm(z1))
    probs = np.abs(vec) ** 2
    for j in range(4):
        got = float(probs @ basis.occupations[:, j])
        assert abs(got - n * abs(u[j]) ** 2) <= 1e-12


def test_sector_state_is_projected_coherent():
    grid = Grid(4, np.pi)
    rng = np.random.default_rng(6)
    z1 = 0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    eps = 0.5
    n = 2
    trunc = truncated_basis(grid.n_sites, 5)
    full, _ = coherent_state(grid, trunc, z1, eps)
    sec = sector_basis(grid.n_sites, n)
    rows = trunc.index_of(sec.occupations)
    proj = full[rows]
    proj = proj / np.linalg.norm(proj)
    vec, _ = coherent_state(grid, sec, z1, eps)
    # agree up to a global phase, which is fixed by matching one entry
    phase = proj[np.argmax(np.abs(proj))] / vec[np.argmax(np.abs(proj))]
    assert abs(abs(phase) - 1.0) <= 1e-10
    assert np.allclose(proj, phase * vec, atol=1e-10)


# ---------------------------------------------------------------------------
# Weyl operators


def test_weyl_unitary_and_vacuum_characteristic_function():
    grid = Grid(4, np.pi)
    eps = 0.5
    modes = np.array([1, 3])
    basis = truncated_basis(2, 18, modes=modes)
    xi2 = np.zeros(grid.n_sites, dtype=complex)
    xi2[1] = 0.7 - 0.2j
    xi2[3] = 0.4j
    # exp of the capped generator: unitary on the capped space, and close
    # to the untruncated W(xi) on the vacuum only for a deep cap
    w_mat = expm(weyl_generator(grid, basis, xi2, eps).toarray())
    assert np.linalg.norm(w_mat.conj().T @ w_mat - np.eye(basis.dim),
                          2) <= 1e-12
    vac = np.zeros(basis.dim)
    vac[0] = 1.0
    got = np.vdot(vac, w_mat @ vac)
    norm_sq = grid.dk * np.sum(np.abs(xi2[modes]) ** 2)
    assert abs(got - np.exp(-eps * norm_sq / 4.0)) <= 1e-10


def test_weyl_displaces_vacuum_to_coherent_state(free_ham):
    grid = Grid(4, np.pi)
    eps = 0.4
    modes = np.array([1, 3])
    basis = truncated_basis(2, 20, modes=modes)
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.3 + 0.1j
    z2[3] = -0.2
    xi = np.sqrt(2.0) * z2 / (1j * eps)
    # <n|W(xi)|0> = conj <0|W(-xi)|n>, exactly, on the meson factor alone
    # (a nucleon factor of dim 1)
    nucleon = truncated_basis(grid.n_sites, 0)
    no_xi1 = np.zeros(grid.n_sites, dtype=complex)
    vac = np.zeros(basis.dim)
    vac[0] = 1.0
    got = np.conj(weyl_matrix_elements(free_ham(grid, eps, nucleon, basis),
                                       no_xi1, -xi, vac,
                                       np.eye(basis.dim))[1:])
    want, deficit = coherent_state(grid, basis, z2, eps)
    assert deficit <= 1e-12
    assert np.linalg.norm(got - want) <= 1e-12


def test_weyl_sector_rejected():
    grid = Grid(4, np.pi)
    with pytest.raises(SectorBasisUnsupported):
        weyl_generator(grid, sector_basis(4, 2), np.ones(4, dtype=complex),
                       0.5)


def test_weyl_generator_from_cached_ladders_matches_rebuilt():
    grid = Grid(4, np.pi)
    eps = 0.3
    rng = np.random.default_rng(4)
    modes = np.array([1, 3])
    xi = np.zeros(grid.n_sites, dtype=complex)
    xi[modes] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for basis in (truncated_basis(2, 6, modes=modes),
                  truncated_basis(2, 6, modes=modes, standing=True),
                  truncated_basis(grid.n_sites, 3)):
        arg = xi if basis.modes is not None else 0.5 * xi[::-1] + 0.2
        gen = weyl_generator(grid, basis, arg, eps).toarray()
        assert np.abs(gen).max() >= 0.1
        assert np.abs(gen + gen.conj().T).max() <= 1e-15


def test_weyl_conjugation_identities_small_residuals():
    # the cap-induced leakage scales like the Poisson tail of the
    # displacement over the core margin, amplified by dGamma(y) at the
    # cap, so a deep cap and a wide margin isolate the identity itself;
    # in the standing-wave frame the arguments are rotated to the slots,
    # on which y acts
    grid = Grid(4, np.pi)
    eps = 0.5
    modes = np.array([1, 3])
    omega = dispersion(grid.k, 1.0)
    for standing in (False, True):
        basis = truncated_basis(2, 24, modes=modes, standing=standing)
        rng = np.random.default_rng(3)
        for trial in range(3):
            xi = np.zeros(grid.n_sites, dtype=complex)
            eta = np.zeros(grid.n_sites, dtype=complex)
            xi[modes] = 0.25 * (rng.standard_normal(2)
                                + 1j * rng.standard_normal(2))
            eta[modes] = 0.25 * (rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2))
            if trial == 0:
                y = np.diag(omega[modes])
            else:
                m = rng.standard_normal((2, 2)) \
                    + 1j * rng.standard_normal((2, 2))
                y = m @ m.conj().T
            out = weyl_conjugation_identities(grid, basis, xi, eta, y, eps,
                                              core_margin=12)
            assert out["unitarity"] <= 1e-12
            assert out["dgamma_conjugation"] <= 1e-8
            assert out["ladder_displacement"] <= 1e-8
            assert out["composition"] <= 1e-8


def test_weyl_identities_on_position_factor():
    grid = Grid(2, np.pi / 2)
    eps = 0.6
    basis = truncated_basis(grid.n_sites, 22)
    rng = np.random.default_rng(9)
    xi = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    eta = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    m = rng.standard_normal((2, 2))
    y = m @ m.T
    out = weyl_conjugation_identities(grid, basis, xi, eta, y, eps,
                                      core_margin=11)
    assert out["dgamma_conjugation"] <= 1e-8
    assert out["composition"] <= 1e-8


# ---------------------------------------------------------------------------
# relative bounds


def test_relative_bounds_hold_on_random_states():
    grid = Grid(4, np.pi)
    params = small_model(grid)
    eps = 0.5
    nb = truncated_basis(grid.n_sites, 2)
    w = coupling_weight(grid, params)
    modes = np.nonzero(w != 0)[0]
    mb = truncated_basis(modes.size, 3, modes=modes)
    out = check_relative_bounds(FactoredHamiltonian(grid, params, eps, nb, mb),
                                n_samples=200, seed=1)
    for name, ratio in out.items():
        assert ratio <= 1.0 + 1e-9, f"{name}: {ratio}"
    # the bounds are not vacuous: something comes close enough to matter
    assert max(out.values()) >= 1e-3


def test_annihilator_matches_ladder_sum():
    grid = Grid(4, np.pi)
    eps = 0.5
    basis = truncated_basis(2, 3, modes=np.array([1, 3]))
    f = np.array([0.5 - 0.1j, 0.2j])
    got = annihilator(basis, f, grid.dk, eps).toarray()
    want = np.zeros((basis.dim, basis.dim), dtype=complex)
    for m in range(2):
        want += np.sqrt(grid.dk) * np.conj(f[m]) * ladder(basis, m,
                                                          eps).toarray()
    assert np.allclose(got, want)


def per_mode_sum(basis, f, quad, eps):
    """a(f) by adding the weighted ladders of the modes with f_m != 0."""
    out = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for m, f_m in enumerate(f):
        if f_m != 0:
            out = out + np.sqrt(quad) * np.conj(f_m) * ladder(basis, m, eps)
    return out


@pytest.mark.parametrize("frame", ["plane", "standing", "sites"])
def test_annihilator_is_the_per_mode_sum_exactly(frame):
    # six sites: modes 1 and 5 form a standing pair, 3 (Nyquist) stays a
    # plane wave; the middle weight is zero
    basis = (truncated_basis(3, 4) if frame == "sites" else
             truncated_basis(3, 4, modes=np.array([1, 3, 5]),
                             standing=frame == "standing"))
    f = np.array([0.4 - 0.2j, 0.0, 0.3j])
    got = annihilator(basis, f, 0.7, 0.3)
    want = per_mode_sum(basis, f, 0.7, 0.3)
    assert got.nnz == want.nnz > 0
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # a caller may change its result in place without touching the next
    got.data[:] = 0.0
    got.eliminate_zeros()
    again = annihilator(basis, f, 0.7, 0.3)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(again, name), getattr(want, name))


def test_lowering_table_is_built_once_and_read_only():
    basis = truncated_basis(3, 4)
    table = basis.lowering
    assert basis.lowering is table
    indptr, indices, mode, n = table
    # one entry per quantum that can be removed, with its source
    # occupation, in canonical CSR order
    assert indptr[-1] == np.count_nonzero(basis.occupations)
    assert np.array_equal(n, basis.occupations[indices, mode])
    pattern = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                            shape=(basis.dim, basis.dim))
    assert pattern.has_canonical_format
    for array in table:
        with pytest.raises(ValueError):
            array[:1] = 0
    assert annihilator(basis, [1.0, 2.0, 3.0], 1.0, 0.5).dtype == float
    with pytest.raises(SectorBasisUnsupported):
        annihilator(sector_basis(3, 2), [1.0, 0.0, 0.0], 1.0, 0.5)


def test_resolvent_bound_ratio_below_one():
    rng = np.random.default_rng(23)
    for eps in (1.0, 0.5, 0.1):
        m = 3
        y1 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        y2 = r.conj().T @ r
        ratio = resolvent_bound_ratio(y1, y2, cap=8, eps=eps)
        assert 0.0 < ratio <= 1.0 + 1e-9


def test_resolvent_bound_single_mode_saturates_partially():
    # one mode, y2 = 0: the operator is eps*n*y1 / (eps*n + 1), whose norm
    # approaches |y1| from below as the cap grows; the prefactor keeps the
    # ratio under 1/(1+sqrt(2)) + slack
    y1 = np.array([[2.0]])
    y2 = np.array([[0.0]])
    r_small = resolvent_bound_ratio(y1, y2, cap=4, eps=1.0)
    r_large = resolvent_bound_ratio(y1, y2, cap=64, eps=1.0)
    assert r_small < r_large <= 1.0 / (1.0 + np.sqrt(2.0)) + 1e-9


def test_resolvent_bound_shape_validation():
    with pytest.raises(ValueError):
        resolvent_bound_ratio(np.eye(2), np.eye(3), cap=4, eps=0.5)


# ---------------------------------------------------------------------------
# Chebyshev propagator


def random_hermitian(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("complex_entries", [False, True])
def test_chebyshev_propagator_matches_dense_exponential(complex_entries,
                                                        one_pair):
    rng = np.random.default_rng(17 + complex_entries)
    for radius in (0.1, 1.0, 7.0, 30.0, 90.0, 200.0):
        n = int(rng.integers(4, 30))
        h = random_hermitian(rng, n, complex_entries)
        h += rng.uniform(-3.0, 3.0) * np.eye(n)
        lo, hi = _gershgorin_interval(one_pair(h))
        tau = 2.0 * radius / (hi - lo)
        u = expm(-1j * tau * h)
        for shape in ((n,), (n, 3)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = _expm_hermitian(one_pair(h), [tau], v)[0]
            assert got.shape == shape
            assert np.linalg.norm(got - u @ v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_chebyshev_propagator_serves_several_times_in_one_call(
        complex_entries, one_pair):
    rng = np.random.default_rng(29 + complex_entries)
    n = 24
    h = random_hermitian(rng, n, complex_entries) + 1.5 * np.eye(n)
    taus = [0.0, 0.05, 0.4, 1.3, 6.0, -2.0]
    for shape in ((n,), (n, 3)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _expm_hermitian(one_pair(h), taus, v)
        assert got.shape == (len(taus),) + shape
        assert np.array_equal(got[0], v)
        for tau, g in zip(taus, got):
            assert np.linalg.norm(g - expm(-1j * tau * h) @ v) \
                <= 1e-12 * np.linalg.norm(v)


def test_chebyshev_propagator_runs_a_real_generator_in_real_arithmetic(
        monkeypatch, one_pair):
    rng = np.random.default_rng(31)
    n = 20
    h = random_hermitian(rng, n, False)
    operands, original = [], ProductOperator._matmat

    def recording(self, x, out=None):
        operands.append(x.dtype)
        return original(self, x, out)

    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taus = [0.3, 2.0]
    with monkeypatch.context() as patched:
        patched.setattr(ProductOperator, "_matmat", recording)
        got = _expm_hermitian(one_pair(h), taus, v)
    assert operands
    assert all(dtype == np.float64 for dtype in operands)
    as_complex = _expm_hermitian(one_pair(h.astype(complex)), taus, v)
    for tau, g, c in zip(taus, got, as_complex):
        assert np.linalg.norm(g - expm(-1j * tau * h) @ v) \
            <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(g - c) <= 1e-13 * np.linalg.norm(v)


def hermitian_generator(kind, complex_entries, one_pair):
    """A Hermitian `ProductOperator` and its dense matrix: `one_pair` of
    a dense matrix, or pairs over (6, 4) of Hermitian factors of every
    kind, with or without the meson diagonal I (x) diag(R)."""
    rng = np.random.default_rng(43 + complex_entries)
    if kind == "one-pair":
        h = random_hermitian(rng, 12, complex_entries) + 2.0 * np.eye(12)
        return one_pair(h), h

    def factor(n):  # sparse: the tridiagonal part of a Hermitian matrix
        return sp.csr_matrix(np.triu(np.tril(
            random_hermitian(rng, n, complex_entries), 1), -1))

    terms = [(factor(6), None), (rng.standard_normal(6), factor(4)),
             (factor(6), factor(4)), (None, factor(4)),
             (rng.standard_normal(6), None)]
    if kind == "meson-diagonal":
        terms.append((None, rng.uniform(1.0, 3.0, 4)))
    return pair_operator(terms, (6, 4))


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("kind", ["one-pair", "meson-diagonal",
                                  "no-meson-diagonal"])
def test_chebyshev_propagator_on_the_prescaled_generator(kind,
                                                         complex_entries,
                                                         one_pair):
    # the recurrence runs on 2X = (2/d)(h - c), built from the pairs of h:
    # one factor of each pair scaled, and the shift taken into the meson
    # diagonal, or into a pair appended when h has none
    op, dense = hermitian_generator(kind, complex_entries, one_pair)
    assert np.abs(dense - dense.conj().T).max() == 0.0
    assert op.dtype == (np.complex128 if complex_entries else np.float64)
    lo, hi = _gershgorin_interval(op)
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    x2 = fock_space._scaled_shifted(op, 2.0 / half, center)
    assert len(x2.terms) == len(op.terms) + (kind != "meson-diagonal")
    want = (2.0 / half) * (dense - center * np.eye(op.dim))
    assert np.abs(x2.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    rng = np.random.default_rng(47)
    taus = [0.25, 3.0, -11.0]
    for shape in ((op.dim,), (op.dim, 2)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for tau, got in zip(taus, _expm_hermitian(op, taus, v)):
            assert np.linalg.norm(got - expm(-1j * tau * dense) @ v) \
                <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("kind", ["one-pair", "meson-diagonal"])
def test_chebyshev_real_generator_takes_two_products_a_term(
        kind, monkeypatch, one_pair):
    # K terms cost K - 1 products on each of the real and imaginary parts
    # of a complex v, and nothing more: the shift and scale are in 2X
    op, _ = hermitian_generator(kind, False, one_pair)
    lo, hi = _gershgorin_interval(op)
    taus = [0.4, 5.0]
    terms = fock_space._chebyshev_length(max(taus) * (hi - lo) / 2.0)
    products, original = [], ProductOperator._matmat

    def counted(self, x, out=None):
        products.append(x.dtype)
        return original(self, x, out)

    rng = np.random.default_rng(53)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    monkeypatch.setattr(ProductOperator, "_matmat", counted)
    _expm_hermitian(op, taus, v)
    assert terms > 10
    assert products == [np.float64] * (2 * (terms - 1))


def test_chebyshev_interval_holds_the_spectrum(one_pair):
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 25, True)
    lo, hi = _gershgorin_interval(one_pair(h))
    eig = np.linalg.eigvalsh(h)
    assert lo <= eig[0] and eig[-1] <= hi


def dense_gershgorin(dense):
    """The union of the Gershgorin discs of a dense Hermitian matrix."""
    diag = np.diag(dense).real
    radius = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    return np.min(diag - radius), np.max(diag + radius)


def test_gershgorin_interval_of_the_pairs():
    # real standing-wave H: the pairs' off-diagonal patterns are disjoint,
    # so the interval is that of the assembled matrix
    grid = Grid(4, np.pi)
    params = small_model(grid)
    ham = FactoredHamiltonian(grid, params, 0.4, truncated_basis(4, 2),
                              active_meson_basis(grid, params, 3))
    assert ham.dtype == np.float64
    lo, hi = _gershgorin_interval(ham)
    want = dense_gershgorin(ham.toarray())
    assert lo == pytest.approx(want[0], rel=1e-14)
    assert hi == pytest.approx(want[1], rel=1e-14)
    # odd chi gives a complex H; where its pairs share an off-diagonal
    # pattern the interval is wider than the discs, and it holds the
    # spectrum in any case
    params = ModelParams(mass=1.0, meson_mass=1.0, charge=1.0,
                         potential=potential_preset(grid, "harmonic", 1.0),
                         chi=np.array([0.0, 0.3, 0.0, -0.3]))
    ham = FactoredHamiltonian(grid, params, 0.4, truncated_basis(4, 2),
                              active_meson_basis(grid, params, 3))
    assert ham.dtype == np.complex128
    dense = ham.toarray()
    lo, hi = _gershgorin_interval(ham)
    discs = dense_gershgorin(dense)
    eig = np.linalg.eigvalsh(dense)
    assert lo <= discs[0] + 1e-13 and discs[1] - 1e-13 <= hi
    assert lo <= eig[0] and eig[-1] <= hi


def test_chebyshev_propagator_on_zero_width_intervals(one_pair):
    rng = np.random.default_rng(9)
    v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    scalar = one_pair(2.5 * np.eye(6))
    assert _gershgorin_interval(scalar) == (2.5, 2.5)
    got = _expm_hermitian(scalar, [0.7], v)[0]
    assert np.linalg.norm(got - np.exp(-1.75j) * v) <= 1e-15
    zero = one_pair(sp.csr_matrix((6, 6)))
    assert _gershgorin_interval(zero) == (0.0, 0.0)
    assert np.array_equal(_expm_hermitian(zero, [3.0], v)[0], v)
    assert np.array_equal(_expm_hermitian(zero, [3.0], v[:, 0])[0], v[:, 0])


def test_chebyshev_propagator_rejects_a_non_hermitian_generator(one_pair):
    # the series is exact only for a Hermitian h; a nilpotent h changes
    # the norm, and a non-finite entry leaves no finite interval
    v = np.array([0.6, 0.8j])
    for h in (np.array([[0.0, 5.0], [0.0, 0.0]]),
              np.array([[1.0, np.nan], [np.nan, 0.0]])):
        h = one_pair(h)
        with pytest.raises(StepSizeRejected) as info:
            _expm_hermitian(h, [1.0], v)
        assert isinstance(info.value, NelsonLabError)
