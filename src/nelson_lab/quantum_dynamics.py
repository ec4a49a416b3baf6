"""Truncated Fock-space dynamics of the coupled nucleon-meson system.

The scaled Hamiltonian is H = dGamma1(h1) (x) I + I (x) dGamma2(omega)
+ H_c with the coupling H_c = sum_m sqrt(dk) w_m [dGamma1(e^{-i k_m x})
(x) a_m* + h.c.], w = chi/sqrt(omega); the propagator is exp(-i t H/eps).
Conjugating the coupling with a Weyl operator expands in eps:
(i/eps)(W(xi)* H_c W(xi) - H_c) = B0 + eps B1 + eps^2 B2, and the
time-dependent characteristic function obeys an exact integral identity
with the freely evolved argument xi(s); both are built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, get_blas_funcs

from .classical_dynamics import FieldState, free_flow
from .discretization import (coupling_weight, covered_modes, dispersion,
                             one_body_hamiltonian)
from .errors import BasisTooLarge, StepSizeRejected
from .fock_space import (MAX_PRODUCT_STATES, ProductOperator, _accumulate,
                         _core_projector, _dense_weyl, _expm_hermitian,
                         _slot_field, annihilator, coherent_state,
                         dgamma_diagonal, ladder, second_quantize,
                         truncated_basis)


def active_meson_basis(grid, params, cap, *fields):
    """Truncated standing-wave meson basis over the modes the coupling and
    the given mode fields reach (`covered_modes`).  For a coupling even in
    k the Hamiltonian on it is real."""
    modes = covered_modes(grid, params, *fields)
    return truncated_basis(modes.size, cap, modes=modes, standing=True)


def _site_profiles(grid, w, basis):
    """g[p, j]: the coupling profile of meson slot p at site x_j, the
    `_slot_field` of the plane-wave rows w_m e^{-i k_m x_j} (real at k = 0
    and Nyquist), so sqrt2 w cos(kx) and -sqrt2 w sin(kx) on a standing
    pair with w_k = w_-k.  Real when every imaginary part vanishes."""
    rows = w[:, None] * grid.phases
    rows.imag[[0, grid.n_sites // 2]] = 0.0  # sin(k x_j) = 0 exactly
    g = _slot_field(grid, basis, rows, "coupling weight")[1]
    return g if np.any(g.imag) else g.real


class FactoredHamiltonian(ProductOperator):
    """H = dGamma1(h1) (x) I + I (x) diag(eps n.omega) + H_c as a
    `ProductOperator`, and the owner of the nucleon (x) meson space it
    acts on.  Built once with it: the coupling weight w = chi/sqrt(omega)
    (`weight`), the coupled meson slots `slots` with their site profiles
    `slot_profiles` (rows of `_site_profiles`) and their annihilators
    `slot_ladders` a_p, and the nucleon profiles `profiles`, rho_p(n) =
    sqrt(dk) eps sum_j n_j g_p(x_j), one row per coupled slot.  The
    coupling pairs, `b_operators` and `check_relative_bounds` share the
    slot ladders.  Every other annihilator re-weights the lowering table
    of its basis (`annihilator`), so a nucleon sector raises
    SectorBasisUnsupported only when one is asked for.

    The coupling is H_c = sum_p [diag(rho_p) (x) a_p* + diag(conj rho_p)
    (x) a_p].  With rho_p = r_p + i s_p and real ladders it is kept as the
    pairs (r_p, a_p + a_p^T) and, for complex profiles, (i s_p, a_p^T -
    a_p); `coupling` is H_c alone.  The profiles are real when the slot
    profiles are, so the dtype is real in a standing-wave meson basis for
    a coupling even in k.  A product space of more than
    MAX_PRODUCT_STATES states raises BasisTooLarge before any of it is
    built."""

    def __init__(self, grid, params, eps, nucleon_basis, meson_basis):
        states = nucleon_basis.dim * meson_basis.dim
        if states > MAX_PRODUCT_STATES:
            raise BasisTooLarge(
                f"the product space would have {nucleon_basis.dim} x "
                f"{meson_basis.dim} = {states} states, more than "
                f"{MAX_PRODUCT_STATES}")
        self.grid, self.params, self.eps = grid, params, eps
        self.nucleon_basis, self.meson_basis = nucleon_basis, meson_basis
        if meson_basis.modes is None:
            raise ValueError("meson basis must carry grid mode indices")
        self.weight = coupling_weight(grid, params)
        g = _site_profiles(grid, self.weight, meson_basis)
        self.slots = np.nonzero(np.any(g != 0, axis=1))[0]
        self.slot_profiles = g[self.slots]
        self.profiles = np.sqrt(grid.dk) * eps * (
            self.slot_profiles @ nucleon_basis.occupations.T)
        self.slot_ladders = [ladder(meson_basis, p, eps) for p in self.slots]
        omega = dispersion(grid.k, params.meson_mass)
        self.dg1 = second_quantize(
            nucleon_basis, one_body_hamiltonian(grid, params), eps)
        self.meson_diag = dgamma_diagonal(meson_basis,
                                          omega[meson_basis.modes], eps)
        coupling = []
        for rho, a in zip(self.profiles, self.slot_ladders):
            coupling.append((rho.real, a + a.T))
            if np.iscomplexobj(rho):
                coupling.append((1j * rho.imag, a.T - a))
        dims = (nucleon_basis.dim, meson_basis.dim)
        self.coupling = ProductOperator(coupling, dims)
        super().__init__([(self.dg1, None), (None, self.meson_diag)]
                         + coupling, dims)
        self.weyl_workspace = None  # see weyl_matrix_elements


def coherent_product_state(ham, z1, z2):
    """The normalised coherent product vector at (z1, z2) on the bases of
    a `FactoredHamiltonian`, and the larger of the two factors' capped
    coherent deficits: the capped coherent state (or, on a nucleon
    sector, the symmetrised power of z1) on each factor.  In a
    standing-wave meson basis it takes the rotated amplitudes."""
    v1, d1 = coherent_state(ham.grid, ham.nucleon_basis, z1, ham.eps)
    v2, d2 = coherent_state(ham.grid, ham.meson_basis, z2, ham.eps)
    return np.kron(v1, v2), max(d1, d2)


def propagate(ham, psi0, times):
    """Vectors exp(-i t H/eps) psi0 at the requested times (increasing,
    starting at or after zero), all from one Chebyshev recurrence on the
    factor pairs of `ham` and their Gershgorin interval, with no
    product-space matrix built; a time of zero gives psi0 itself."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1d array")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    return list(_expm_hermitian(ham, times / ham.eps, psi0))


def free_weyl_argument(grid, params, xi1, xi2, t):
    """Freely evolved argument xi_t = (e^{-i t h1} xi1, e^{-i t omega} xi2):
    exp(-itH0/eps) W(xi) exp(+itH0/eps) = W(xi_t), exactly on the truncated
    bases, because H0 conserves each factor's occupation total."""
    st = free_flow(grid, params, FieldState(xi1, xi2), t)
    return st.z1, st.z2


def _lowering_series(z, quad_eps, block, basis, work=None):
    """Even and odd parts of exp(A) block = sum_k A^k block / k! for A =
    (i/sqrt2) a(z), a(z) = sum_m sqrt(quad_eps) conj(z_m) b_m, which lowers
    the total of a truncated `basis` by one, so that A^k = 0 for k > cap.
    A is its data over the (indptr, indices) of `basis.lowering`, no
    sparse matrix, and term k is (A/k) term k - 1, the 1/k folded into
    that data.  Term k lives on the leading rows, of total at most cap -
    k, and `_accumulate` builds it there from the leading rows of the
    table, which reach only those of term k - 1.  `work`, (4,) +
    block.shape (fresh when None), takes the parts, returned, in work[:2]
    (the block may be work[0]) and the terms in the zeroed work[2:]."""
    indptr, indices, mode, n = basis.lowering
    data = (1j * np.sqrt(quad_eps / 2.0) * np.conj(z))[mode] * np.sqrt(n)
    ends = np.searchsorted(basis.occupations.sum(axis=1),
                           np.arange(basis.cap), side="right")
    if work is None:
        work = np.empty((4,) + block.shape, dtype=complex)
    parts, term = work[:2], work[0]
    parts[0][...] = block
    parts[1].fill(0.0)
    for k in range(1, basis.cap + 1):
        term, prev = work[2 + k % 2][:ends[basis.cap - k]], term
        term.fill(0.0)
        _accumulate((data / k, indices, indptr), prev, term)
        parts[k % 2][:len(term)] += term
    return parts


def weyl_matrix_elements(ham, xi1, xi2, phi, chis):
    """<phi, W(xi1, xi2) phi>, then <phi, W chi> for each chi in `chis`,
    on the product space of `ham`, exactly as the untruncated W acts on
    capped states.  With beta = i/sqrt2 and A = a1(xi1) (x) I + I (x)
    a2(xi2), normal ordering gives <phi, W chi> = e^{-eps|xi|^2/4}
    <e^{-beta A} phi, e^{beta A} chi>, and A only lowers, so each
    exponential is a finite `_lowering_series`.  On P (dimN x dimM) it is
    e^{beta a1} P (e^{beta a2})^T: one nucleon series on all vectors at
    once, whose even and odd parts E1, O1 give both signs, and the meson
    series E2, O2 on the identity.  The value for chi contracts (E1 -
    O1)_phi^H (E1 + O1)_chi with (E2 - O2)^H (E2 + O2).  A zero
    argument's factor is the identity, and its series is not run: xi1 =
    0 leaves E1 = P, O1 = 0, and xi2 = 0 no Gram matrix, the value being
    the vdot of (E1 - O1)_phi and (E1 + O1)_chi, or |E1|^2 - |O1|^2 +
    2i Im<E1, O1> for phi alone.  The vectors, the series and E1 -+ O1
    live in `ham.weyl_workspace`, kept for the next call with as many
    vectors.  After a nucleon series, E1 - O1 is conjugated there in
    place, and numpy reads it and each vector's columns, strided in the
    stack, where they lie: one einsum for all vectors when xi2 = 0, else
    one (dimM, dimM) matmul per vector.  With xi1 = 0 the vectors are
    the caller's: a vdot each, or one gemm on the transposes, r^T
    conj(phi), which copies and conjugates nothing.
    Unless xi1 = 0, a nucleon sector raises."""
    nb, mb, (dim_n, dim_m) = ham.nucleon_basis, ham.meson_basis, ham.dims
    quad1, z1 = _slot_field(ham.grid, nb, xi1, "argument")
    quad2, z2 = _slot_field(ham.grid, mb, xi2, "argument")
    norm_sq = quad1 * np.vdot(z1, z1).real + quad2 * np.vdot(z2, z2).real
    scale = np.exp(-ham.eps * norm_sq / 4.0)
    vectors = [np.asarray(v, complex).reshape(ham.dims) for v in (phi, *chis)]
    lhs, rights, gram2 = vectors[0], vectors, None
    if z2.any():
        even2, odd2 = _lowering_series(z2, quad2 * ham.eps, np.eye(dim_m), mb)
        gram2 = (even2 - odd2).conj().T @ (even2 + odd2)
        del even2, odd2  # their workspace goes before the nucleon series
    if z1.any():
        work, shape = ham.weyl_workspace, (dim_n, len(vectors) * dim_m)
        if work is None or work.shape[1:] != shape:
            work = ham.weyl_workspace = np.empty((4,) + shape, complex)
        np.stack(vectors, axis=1, out=work[0].reshape(dim_n, -1, dim_m))
        even, odd = _lowering_series(z1, quad1 * ham.eps, work[0], nb, work)
        if len(vectors) == 1 and gram2 is None:
            return scale * np.array([np.vdot(even, even).real - np.vdot(
                odd, odd).real + 2j * np.vdot(even, odd).imag])
        lhs = np.subtract(even, odd, out=odd)
        even *= 2.0  # E1 + O1 = 2 E1 - (E1 - O1), in pages already used
        rights = np.subtract(even, odd, out=even).reshape(dim_n, -1, dim_m)
        # conj(E1 - O1) over the whole slab: a ufunc in place on phi's
        # strided columns alone would copy them.  einsum and matmul read
        # those columns, and each vector's, where they lie.
        lhs = np.conjugate(lhs, out=lhs)[:, :dim_m]
        if gram2 is None:
            return scale * np.einsum("nm,nvm->v", lhs, rights)
        return scale * np.array([np.sum(gram2 * (lhs.T @ rights[:, v]))
                                 for v in range(len(vectors))])
    if gram2 is None:
        return scale * np.array([np.vdot(lhs, r) for r in rights])
    gemm = get_blas_funcs("gemm", (lhs, rights[0]))  # r^T conj(lhs)
    return scale * np.array([np.sum(gram2.T * gemm(
        1.0, r.T, lhs.T, trans_b=2)) for r in rights])


def b_operators(ham, xi1, xi2):
    """Coefficients of the Weyl-conjugated coupling of `ham`, as product
    operators: W(xi)* H_c W(xi) = H_c - i eps (B0 + eps B1 + eps^2 B2).

    With G_p = sqrt(dk) g_p the site profile of meson slot p (see
    `_site_profiles`) and zeta_p = sqrt(dk) times the slot amplitude of
    xi2 (see `_slot_field`), B0 = -(1/sqrt2) [sum_p (L_p (x) a_p* - L_p*
    (x) a_p) + dGamma1(S) (x) I] with L_p = psi*(xi1 G_p) - psi(xi1 conj
    G_p) and S = sum_p (zeta_p conj G_p - c.c.), B1 = -(i/2) [(psi*(S xi1)
    + psi(S xi1)) (x) I - I (x) sum_p (mu_p a_p* + conj(mu_p) a_p)] with
    mu_p = dx sum_j G_p(x_j) |xi1_j|^2, and B2 = -(i/sqrt2) Im sum_p
    zeta_p conj(mu_p).  Slot profiles and amplitudes rotate alike, so
    these hold in plane-wave and standing-wave meson bases alike.  All
    three are anti-Hermitian; B2 is a purely imaginary scalar.  The pairs
    with a_p take the `slot_ladders` of `ham`; psi(f) and a(mu) re-weight
    the lowering tables of its bases (`annihilator`).
    """
    grid, eps, nb, mb = ham.grid, ham.eps, ham.nucleon_basis, ham.meson_basis
    xi1 = np.asarray(xi1, dtype=complex)
    _, zeta = _slot_field(grid, mb, xi2, "argument")
    zeta = np.sqrt(grid.dk) * zeta[ham.slots]
    g = np.sqrt(grid.dk) * ham.slot_profiles
    s_plus = zeta @ np.conj(g)
    s_site = s_plus - np.conj(s_plus)

    def psi(f):
        return annihilator(nb, f, grid.dx, eps)

    scale = -1.0 / np.sqrt(2.0)
    b0 = [(scale * dgamma_diagonal(nb, s_site, eps), None)]
    for g_p, a_p in zip(g, ham.slot_ladders):
        left = scale * (psi(xi1 * g_p).getH() - psi(xi1 * np.conj(g_p)))
        b0 += [(left, a_p.T), (-left.getH(), a_p)]
    # sum_p (mu_p a_p* + conj(mu_p) a_p) = a(mu)* + a(mu)
    mu = np.zeros(mb.n_modes, dtype=complex)
    mu[ham.slots] = grid.dx * (g @ np.abs(xi1) ** 2)
    lower = annihilator(mb, mu, 1.0, eps)
    third = lower.getH() + lower
    field = psi(s_site * xi1)
    b1 = [(-0.5j * (field.getH() + field), None), (None, 0.5j * third)]
    b2_scalar = -(1j / np.sqrt(2.0)) * np.imag(np.vdot(mu[ham.slots], zeta))
    b2 = [(np.full(nb.dim, b2_scalar), None)]
    return tuple(ProductOperator(terms, ham.dims) for terms in (b0, b1, b2))


def b_expansion_residual(ham, xi1, xi2, core_margin=(8, 10)):
    """Operator-norm residual of the conjugation expansion on the core.

    Compares (i/eps)(W* H_c W - H_c) for the coupling H_c of `ham` against
    B0 + eps B1 + eps^2 B2 with everything dense, projected onto states at
    least `core_margin` quanta below the caps in each factor.
    """
    grid, eps, nb, mb = ham.grid, ham.eps, ham.nucleon_basis, ham.meson_basis
    w_full = np.kron(_dense_weyl(grid, nb, xi1, eps),
                     _dense_weyl(grid, mb, xi2, eps))
    h_c = ham.coupling.toarray()
    b0, b1, b2 = b_operators(ham, xi1, xi2)
    lhs = (1j / eps) * (w_full.conj().T @ h_c @ w_full - h_c)
    rhs = b0.toarray() + eps * b1.toarray() + eps ** 2 * b2.toarray()
    core = np.kron(_core_projector(nb, core_margin[0]),
                   _core_projector(mb, core_margin[1]))
    res = core[:, None] * (lhs - rhs) * core[None, :]
    return float(np.linalg.norm(res, 2))


def _simpson_weights(n_nodes, h):
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


@dataclass
class DuhamelReport:
    """Both sides of the integral identity for the characteristic
    function in the interaction picture, with diagnostics."""

    eps: float
    t: float
    n_nodes: int
    dim: int
    char_initial: complex
    lhs: complex
    rhs: complex
    residual: float
    quadrature_estimate: float
    contributions: tuple


def duhamel_check(ham, psi0, xi1, xi2, t, n_nodes=65):
    """Integral identity for <W(xi)> in the interaction picture.

    lhs: <psi(t)|exp(+itH0/eps) W(xi) exp(-itH0/eps)|psi(t)> with
    psi(t) = exp(-itH/eps) psi0, which equals <psi(t)|W(xi(t))|psi(t)>
    (see `free_weyl_argument`).  rhs: the initial value plus
    sum_j eps^j int_0^t <psi(s), W(xi(s)) B_j(xi(s)) psi(s)> ds with the
    freely evolved argument xi(s), integrated by composite Simpson;
    the quadrature error is estimated against the half-resolution rule.
    The states at the nodes come from one `propagate` call, and all values
    from one `weyl_matrix_elements` call per node; the first and last
    nodes give the initial value and lhs.
    """
    if n_nodes < 5 or (n_nodes - 1) % 4 != 0:
        raise ValueError("n_nodes must be 4k+1 with k >= 1")
    if t <= 0:
        raise StepSizeRejected(f"need a positive time, got {t}")
    eps = ham.eps
    nodes = np.linspace(0.0, t, n_nodes)

    # rows: <psi, W psi>, then <psi, W B_j psi> for j = 0, 1, 2
    vals = np.zeros((4, n_nodes), dtype=complex)
    for i, (s, psi) in enumerate(zip(nodes, propagate(ham, psi0, nodes))):
        z1s, z2s = free_weyl_argument(ham.grid, ham.params, xi1, xi2, s)
        vals[:, i] = weyl_matrix_elements(
            ham, z1s, z2s, psi, [b @ psi for b in b_operators(ham, z1s, z2s)])
    char_initial, lhs = complex(vals[0, 0]), complex(vals[0, -1])

    h = t / (n_nodes - 1)
    fine = vals[1:] @ _simpson_weights(n_nodes, h)
    coarse = vals[1:, ::2] @ _simpson_weights((n_nodes + 1) // 2, 2.0 * h)
    contributions = tuple(eps ** j * fine[j] for j in range(3))
    rhs = char_initial + sum(contributions)
    quad_est = float(sum(eps ** j * abs(fine[j] - coarse[j]) / 15.0
                         for j in range(3)))
    return DuhamelReport(eps=eps, t=t, n_nodes=n_nodes, dim=ham.dim,
                         char_initial=char_initial, lhs=lhs, rhs=complex(rhs),
                         residual=float(abs(lhs - rhs)),
                         quadrature_estimate=quad_est,
                         contributions=contributions)


def gronwall_bound_check(ham, delta, t, n_samples=200, seed=0,
                         dense_limit=2000):
    """Growth of the weighted propagator T^d exp(-itH/eps) T^-d with
    T = N1^2 + N2 + eps, against the exponential a-priori bound
    exp(m_d sqrt(eps) |d| |t| |chi/sqrt(omega)|_2),
    m_d = max(2 + eps, 1 + (1+eps)^d).  Returns ratios <= 1 when it holds.
    """
    if ham.dim > dense_limit:
        raise ValueError(f"dense check limited to dim {dense_limit}")
    eps = ham.eps
    chi_norm = np.sqrt(ham.grid.dk * np.sum(ham.weight ** 2))
    m_delta = max(2.0 + eps, 1.0 + (1.0 + eps) ** delta)
    bound = np.exp(m_delta * np.sqrt(eps) * abs(delta) * abs(t) * chi_norm)
    tvec = number_weight_diagonal(ham)
    u = expm(-1j * t * ham.toarray() / eps)
    weighted = (tvec ** delta)[:, None] * u * (tvec ** -delta)[None, :]
    op_ratio = float(np.linalg.norm(weighted, 2)) / bound
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        phi = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
        worst = max(worst, np.linalg.norm(weighted @ phi)
                    / np.linalg.norm(phi))
    return {"operator_ratio": op_ratio,
            "max_vector_ratio": worst / bound,
            "bound": float(bound),
            "m_delta": float(m_delta)}


def number_weight_diagonal(ham):
    """Diagonal of N1^2 + N2 + eps on the product basis of `ham`."""
    nb, mb, eps = ham.nucleon_basis, ham.meson_basis, ham.eps
    n1 = eps * nb.occupations.sum(axis=1).astype(float)
    n2 = eps * mb.occupations.sum(axis=1).astype(float)
    return np.repeat(n1 ** 2, mb.dim) + np.tile(n2, nb.dim) + eps


def check_relative_bounds(ham, n_samples=500, seed=0):
    """Max ratios over random states for the coupling-term bounds of `ham`.

    The coupling annihilation half acts blockwise as a(f) with the
    configuration-dependent smearing f(n) whose slot amplitudes are the
    nucleon profiles of `ham` over sqrt(dk); sup norms run over the
    nucleon occupations in the basis.  Returns {name: max ratio}, each
    bounded by 1 when the inequality holds.
    """
    grid, eps, profiles = ham.grid, ham.eps, ham.profiles
    creation = ProductOperator(
        zip(profiles, [a.T for a in ham.slot_ladders]), ham.dims)
    annihilation = ProductOperator(zip(profiles.conj(), ham.slot_ladders),
                                   ham.dims)
    omega = dispersion(grid.k, ham.params.meson_mass)[ham.meson_basis.modes]
    # dk |f(n)_p|^2 = |rho_p(n)|^2, and omega is even in k, so a
    # standing pair shares the omega of its modes
    f_sq = np.abs(profiles) ** 2
    sup_fw = np.sqrt(np.max(np.sum(f_sq / omega[ham.slots, None], axis=0)))
    sup_f = np.sqrt(np.max(np.sum(f_sq, axis=0)))
    chi_norm = np.sqrt(grid.dk * np.sum(ham.weight ** 2))

    dim_n = ham.nucleon_basis.dim
    n2 = eps * ham.meson_basis.occupations.sum(axis=1).astype(float)
    h02_half = np.sqrt(np.tile(ham.meson_diag, dim_n))
    n2_half = np.sqrt(np.tile(n2, dim_n))
    n2_shift_half = np.sqrt(np.tile(n2, dim_n) + eps)
    t_diag = number_weight_diagonal(ham)

    rng = np.random.default_rng(seed)
    out = {"annihilation_energy": 0.0, "creation_energy": 0.0,
           "annihilation_number": 0.0, "creation_number": 0.0,
           "coupling_total": 0.0}
    for _ in range(n_samples):
        phi = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
        phi /= np.linalg.norm(phi)
        an_phi, cr_phi = annihilation @ phi, creation @ phi
        an, cr = np.linalg.norm(an_phi), np.linalg.norm(cr_phi)
        h_phi = np.linalg.norm(h02_half * phi)
        out["annihilation_energy"] = max(
            out["annihilation_energy"], an ** 2 / (sup_fw ** 2 * h_phi ** 2))
        out["creation_energy"] = max(
            out["creation_energy"],
            cr ** 2 / (sup_fw ** 2 * h_phi ** 2 + eps * sup_f ** 2))
        out["annihilation_number"] = max(
            out["annihilation_number"],
            an / (sup_f * np.linalg.norm(n2_half * phi)))
        out["creation_number"] = max(
            out["creation_number"],
            cr / (sup_f * np.linalg.norm(n2_shift_half * phi)))
        out["coupling_total"] = max(
            out["coupling_total"],
            np.linalg.norm(an_phi + cr_phi)
            / (chi_norm * np.linalg.norm(t_diag * phi)))
    return out
