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
import scipy.sparse as sp
from scipy.linalg import expm

from .classical_dynamics import FieldState, free_flow
from .discretization import (coupling_weight, dispersion,
                             one_body_hamiltonian)
from .errors import StepSizeRejected
from .fock_space import (ProductOperator, _core_projector, _dense_weyl,
                         _expm_hermitian, _gershgorin_interval,
                         _site_profiles, _slot_field, coherent_state,
                         coupling_factors, coupling_weight_on,
                         dgamma_diagonal, ladders, number_weight_diagonal,
                         second_quantize, smeared_annihilator)


class FactoredHamiltonian(ProductOperator):
    """H = dGamma1(h1) (x) I + I (x) diag(eps n.omega) + H_c as a
    `ProductOperator`.  With rho_p = r_p + i s_p and real ladders, the
    coupling H_c = sum_p [diag(rho_p) (x) a_p* + diag(conj rho_p) (x) a_p]
    is kept as the pairs (r_p, a_p + a_p^T) and, for complex profiles,
    (i s_p, a_p^T - a_p); `coupling` is H_c alone.  The dtype is that of
    the factors: real in a standing-wave meson basis for a coupling even
    in k."""

    def __init__(self, grid, params, eps, nucleon_basis, meson_basis):
        self.grid, self.params, self.eps = grid, params, eps
        self.nucleon_basis, self.meson_basis = nucleon_basis, meson_basis
        omega = dispersion(grid.k, params.meson_mass)
        self.dg1 = second_quantize(
            nucleon_basis, one_body_hamiltonian(grid, params), eps)
        self.meson_diag = dgamma_diagonal(meson_basis,
                                          omega[meson_basis.modes], eps)
        _, self.profiles, self.ladders = coupling_factors(
            grid, params, eps, nucleon_basis, meson_basis)
        coupling = []
        for rho, a in zip(self.profiles, self.ladders):
            coupling.append((rho.real, a + a.T))
            if np.iscomplexobj(rho):
                coupling.append((1j * rho.imag, a.T - a))
        dims = (nucleon_basis.dim, meson_basis.dim)
        self.coupling = ProductOperator(coupling, dims)
        super().__init__([(self.dg1, None), (None, self.meson_diag)]
                         + coupling, dims)


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
    starting at or after zero), stepped on the CSR matrix `ham.tocsr()`
    with its Gershgorin interval computed once; a time of zero is psi0
    itself."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1d array")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    h = ham.tocsr()
    interval = _gershgorin_interval(h)
    out = []
    psi = psi0.copy()
    prev = 0.0
    for t in times:
        if t > prev:
            psi = _expm_hermitian(h, (t - prev) / ham.eps, psi, interval)
            prev = t
        out.append(psi.copy())
    return out


def free_weyl_argument(grid, params, xi1, xi2, t):
    """Freely evolved argument xi_t = (e^{-i t h1} xi1, e^{-i t omega} xi2):
    exp(-itH0/eps) W(xi) exp(+itH0/eps) = W(xi_t), exactly on the truncated
    bases, because H0 conserves each factor's occupation total."""
    st = free_flow(grid, params, FieldState(xi1, xi2), t)
    return st.z1, st.z2


def _lowering_series(op, block, basis):
    """Even and odd parts of exp(op) block = sum_k op^k block / k! for an
    op that lowers the occupation total of a truncated `basis` by one, so
    that op^k = 0 for k > cap; the sum also ends at a vanishing term.  The
    basis is ordered by total, so term k lives on the leading rows, those
    of total at most cap - k, and each term is built and added there.  A
    sparse op is read there from the leading entries of its CSR arrays,
    without scipy's slicing: those rows reach only columns of total at
    most cap - k + 1, the rows of term k - 1."""
    cap = basis.cap
    ends = np.searchsorted(basis.occupations.sum(axis=1), np.arange(cap),
                           side="right")
    parts = [block.astype(complex), np.zeros(block.shape, dtype=complex)]
    term = block
    for k in range(1, cap + 1):
        rows = ends[cap - k]
        if sp.issparse(op):
            end = op.indptr[rows]
            lead = sp.csr_matrix((op.data[:end], op.indices[:end],
                                  op.indptr[:rows + 1]),
                                 shape=(rows, term.shape[0]))
        else:
            lead = op[:rows, :term.shape[0]]
        term = lead @ term
        if not term.any():
            break
        term *= 1.0 / k
        parts[k % 2][:rows] += term
    return parts


def weyl_matrix_elements(grid, eps, nucleon_basis, meson_basis, xi1, xi2,
                         phi, chis, factor_ladders=(None, None)):
    """<phi, W(xi1, xi2) phi>, then <phi, W chi> for each chi in `chis`,
    exactly as the untruncated W acts on capped states.  With beta =
    i/sqrt2 and A = a1(xi1) (x) I + I (x) a2(xi2), normal ordering gives
    <phi, W chi> = e^{-eps|xi|^2/4} <e^{-beta A} phi, e^{beta A} chi>, and
    A only lowers, so each exponential is a finite series.  On P (dimN x
    dimM) it is e^{beta a1} P (e^{beta a2})^T: one sparse nucleon series
    on all vectors at once, whose even and odd parts give both signs, and
    the meson series on the identity.  `factor_ladders` are re-weighted
    (see `b_operators`); sector ladders raise SectorBasisUnsupported."""
    dims = (nucleon_basis.dim, meson_basis.dim)
    beta = 1j / np.sqrt(2.0)
    quad1, z1 = _slot_field(grid, nucleon_basis, xi1, "argument")
    quad2, z2 = _slot_field(grid, meson_basis, xi2, "argument")
    a1 = smeared_annihilator(nucleon_basis, z1, quad1, eps,
                             factor_ladders[0])
    a2 = smeared_annihilator(meson_basis, z2, quad2, eps, factor_ladders[1])
    vectors = [phi, *chis]
    even1, odd1 = _lowering_series(
        beta * a1, np.hstack([v.reshape(dims) for v in vectors]),
        nucleon_basis)
    even2, odd2 = _lowering_series(beta * a2.toarray(), np.eye(dims[1]),
                                   meson_basis)
    lowered = ((even1[:, :dims[1]] - odd1[:, :dims[1]])
               @ (even2 - odd2).T)
    raised = ((even1 + odd1).reshape(dims[0], len(vectors), dims[1])
              @ (even2 + odd2).T)
    norm_sq = quad1 * np.vdot(z1, z1).real + quad2 * np.vdot(z2, z2).real
    return np.exp(-eps * norm_sq / 4.0) * np.einsum(
        "ik,ijk->j", lowered.conj(), raised)


def b_operators(grid, params, eps, nucleon_basis, meson_basis, xi1, xi2,
                factor_ladders=None):
    """Coefficients of the Weyl-conjugated coupling, as product operators:
    W(xi)* H_c W(xi) = H_c - i eps (B0 + eps B1 + eps^2 B2).

    With G_p = sqrt(dk) g_p the site profile of meson slot p (see
    `_site_profiles`), B0 = -(1/sqrt2) [sum_p (L_p (x) a_p* - L_p* (x) a_p)
    + dGamma1(S) (x) I] with L_p = psi*(xi1 G_p) - psi(xi1 conj G_p), and
    B1 = -(i/2) [(psi*(S xi1) + psi(S xi1)) (x) I - I (x) sum_p (mu_p a_p*
    + conj(mu_p) a_p)] with mu_p = dx sum_j G_p(x_j) |xi1_j|^2.  Both are
    linear in the slot profile, so they hold in plane-wave and
    standing-wave meson bases alike.  All three are anti-Hermitian; B2 is
    a purely imaginary scalar.  `factor_ladders`, the pair
    (`ladders(nucleon_basis, eps)`, `ladders(meson_basis, eps)`), lets
    repeated calls on the same bases re-weight one set of ladders.
    """
    if factor_ladders is None:
        factor_ladders = (ladders(nucleon_basis, eps),
                          ladders(meson_basis, eps))
    nucleon_ladders, meson_ladders = factor_ladders
    xi1 = np.asarray(xi1, dtype=complex)
    xi2 = np.asarray(xi2, dtype=complex)
    w = coupling_weight_on(grid, params, meson_basis)
    g = np.sqrt(grid.dk) * _site_profiles(grid, w, meson_basis)
    phases = grid.phases
    # site profile S_j = sum_m dk w_m (xi2_m e^{+i k_m x_j} - c.c.)
    s_plus = grid.dk * (w * xi2) @ np.conj(phases)
    s_site = s_plus - np.conj(s_plus)
    # Fourier transform of |xi1|^2 at the grid modes
    rho_xi = grid.dx * (phases @ (np.abs(xi1) ** 2))

    def psi(f):
        return smeared_annihilator(nucleon_basis, f, grid.dx, eps,
                                   nucleon_ladders)

    scale = -1.0 / np.sqrt(2.0)
    b0 = [(scale * dgamma_diagonal(nucleon_basis, s_site, eps), None)]
    third = sp.csr_matrix((meson_basis.dim, meson_basis.dim), dtype=complex)
    for p in np.nonzero(np.any(g != 0, axis=1))[0]:
        a_p = meson_ladders[p]
        left = scale * (psi(xi1 * g[p]).getH() - psi(xi1 * np.conj(g[p])))
        b0 += [(left, a_p.T), (-left.getH(), a_p)]
        mu = grid.dx * (g[p] @ np.abs(xi1) ** 2)
        third = third + mu * a_p.T + np.conj(mu) * a_p
    field = psi(s_site * xi1)
    b1 = [(-0.5j * (field.getH() + field), None), (None, 0.5j * third)]
    b2_scalar = -(1j / np.sqrt(2.0)) * np.imag(
        grid.dk * np.sum(w * xi2 * np.conj(rho_xi)))
    b2 = [(np.full(nucleon_basis.dim, b2_scalar), None)]
    dims = (nucleon_basis.dim, meson_basis.dim)
    return tuple(ProductOperator(terms, dims) for terms in (b0, b1, b2))


def b_expansion_residual(grid, params, eps, nucleon_basis, meson_basis,
                         xi1, xi2, core_margin=(8, 10)):
    """Operator-norm residual of the conjugation expansion on the core.

    Compares (i/eps)(W* H_c W - H_c) against B0 + eps B1 + eps^2 B2 with
    everything dense, projected onto states at least `core_margin` quanta
    below the caps in each factor.
    """
    w_full = np.kron(_dense_weyl(grid, nucleon_basis, xi1, eps),
                     _dense_weyl(grid, meson_basis, xi2, eps))
    h_c = FactoredHamiltonian(grid, params, eps, nucleon_basis,
                              meson_basis).coupling.toarray()
    b0, b1, b2 = b_operators(grid, params, eps, nucleon_basis, meson_basis,
                             xi1, xi2)
    lhs = (1j / eps) * (w_full.conj().T @ h_c @ w_full - h_c)
    rhs = b0.toarray() + eps * b1.toarray() + eps ** 2 * b2.toarray()
    core = np.kron(_core_projector(nucleon_basis, core_margin[0]),
                   _core_projector(meson_basis, core_margin[1]))
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
    grid, params, eps = ham.grid, ham.params, ham.eps
    nb, mb = ham.nucleon_basis, ham.meson_basis
    nodes = np.linspace(0.0, t, n_nodes)

    factor_ladders = (ladders(nb, eps), ladders(mb, eps))
    # rows: <psi, W psi>, then <psi, W B_j psi> for j = 0, 1, 2
    vals = np.zeros((4, n_nodes), dtype=complex)
    for i, (s, psi) in enumerate(zip(nodes, propagate(ham, psi0, nodes))):
        z1s, z2s = free_weyl_argument(grid, params, xi1, xi2, s)
        b_ops = b_operators(grid, params, eps, nb, mb, z1s, z2s,
                            factor_ladders)
        vals[:, i] = weyl_matrix_elements(grid, eps, nb, mb, z1s, z2s, psi,
                                          [b @ psi for b in b_ops],
                                          factor_ladders)
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
    grid, params = ham.grid, ham.params
    w = coupling_weight(grid, params)
    chi_norm = np.sqrt(grid.dk * np.sum(w ** 2))
    m_delta = max(2.0 + eps, 1.0 + (1.0 + eps) ** delta)
    bound = np.exp(m_delta * np.sqrt(eps) * abs(delta) * abs(t) * chi_norm)
    tvec = number_weight_diagonal(ham.nucleon_basis, ham.meson_basis, eps)
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
