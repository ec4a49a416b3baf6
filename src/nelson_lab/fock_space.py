"""Truncated bosonic Fock spaces over grid modes.

Conventions: modes carry commutators [b, b*] = 1; the scaled ladder
operators a = sqrt(eps) b satisfy [a, a*] = eps.  Second quantisation of a
one-body matrix A is dGamma(A) = eps * sum_ij A_ij b_i* b_j.  Smeared
fields use quadrature weights: psi(f) = sum_j sqrt(dx eps) conj(f_j) b_j
over sites, a(g) = sum_m sqrt(dk eps) conj(g_m) b_m over momentum modes,
so that a coherent state at z has <psi(x)> = z1(x) and <a(k)> = z2(k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, exp, inf, lgamma, log, log1p

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.linalg.blas import get_blas_funcs
from scipy.sparse._sparsetools import csr_matvecs  # see _accumulate
from scipy.special import jv, pdtrc

from .errors import (BasisTooLarge, SectorBasisUnsupported,
                     StepSizeRejected, TruncationInsufficient)


# ---------------------------------------------------------------------------
# bases


# the most rows a basis may have: configs/, the benchmark workloads and the
# planned 16-site runs need at most about 5e4 (54264: 6 nucleons on 16
# sites), while eps = 1e-3 on 4 sites would need 4.6e6
MAX_BASIS_ROWS = 1_000_000
# the most states a nucleon (x) meson product space may have: above the
# 482790 that configs/, the benchmark workloads and the planned larger
# runs need and the 2106000 an acceptance test applies H on, while
# eps = 2e-3 on configs/theorem1.json, whose two factors each pass
# MAX_BASIS_ROWS, gives 557845 x 325 = 1.8e8, 2.9 GB a complex vector
MAX_PRODUCT_STATES = 4_000_000


def _occupations(n_modes, totals):
    """All occupation rows with the given totals, total by total and
    lexicographic within each.  Raises BasisTooLarge above MAX_BASIS_ROWS
    rows, before it enumerates any.  They are built a mode at a time, from
    the last: the rows of total t over one mode more are, for n = 0..t,
    n quanta in the new leading mode ahead of the rows of total t - n."""
    rows = sum(comb(n + n_modes - 1, n_modes - 1) for n in totals)
    if rows > MAX_BASIS_ROWS:
        raise BasisTooLarge(f"the basis would have {rows} rows, more than "
                            f"{MAX_BASIS_ROWS}")
    table = [np.full((1, 1), t, np.int64) for t in range(max(totals) + 1)]
    for _ in range(n_modes - 1):
        table = [np.concatenate([
            np.column_stack((np.full(len(table[t - n]), n), table[t - n]))
            for n in range(t + 1)]) for t in range(len(table))]
    return np.concatenate([table[t] for t in totals])


@dataclass
class FockBasis:
    """Occupation-number basis, either a fixed-total sector or all totals
    up to a cap.  `modes` carries grid mode indices for momentum-space
    factors; None means the factor lives over position sites.  With
    `standing`, each pair of carried modes k, -k is rotated to the
    standing waves c = (a_k + a_-k)/sqrt2 in the slot of k > 0 and
    s = -i (a_k - a_-k)/sqrt2 in the slot of -k (`_slot_field`);
    unpaired modes stay plane waves.  The rotation keeps the total
    number, so it is exact on the capped space, and it leaves
    dGamma(omega) alone because omega is even in k.  A row's key is
    n . p, p_m = (cap + 1)^m: a quantum of mode j leaving it shifts the
    key by -p_j, one moving on to mode i by p_i - p_j (`_lookup`)."""

    kind: str
    n_modes: int
    cap: int
    occupations: np.ndarray
    modes: np.ndarray | None = None
    standing: bool = False
    _powers: np.ndarray = field(init=False, repr=False)
    _keys: np.ndarray = field(init=False, repr=False)
    _sorted_keys: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("sector", "truncated"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.standing and self.modes is None:
            raise ValueError("standing waves need grid mode indices")
        base = self.cap + 1
        if base ** self.n_modes >= 2 ** 62:
            raise BasisTooLarge(f"{self.n_modes} modes up to {self.cap} "
                                "quanta have keys beyond int64")
        self._powers = base ** np.arange(self.n_modes, dtype=np.int64)
        self._keys = self.occupations @ self._powers
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]

    @property
    def dim(self):
        return self.occupations.shape[0]

    @cached_property
    def lowering(self):
        """The pattern of sum_m b_m, found by the key shifts -p_m
        (`_lookup`): CSR (indptr, indices), each row's sources in column
        order, with the mode m that each entry lowers and the source
        occupation n_m, as read-only arrays.  The b_m lower distinct
        modes, so no two of them share an entry.  Built on first use, once
        per basis; `annihilator` re-weights it.  A sector basis raises
        SectorBasisUnsupported, because lowering leaves the sector."""
        if self.kind == "sector":
            raise SectorBasisUnsupported(
                "ladder operators leave a fixed-total sector")
        mode, src = np.nonzero(self.occupations.T)
        tgt, _ = self._lookup(self._keys[src] - self._powers[mode])
        order = np.lexsort((src, tgt))
        table = (np.searchsorted(tgt[order], np.arange(self.dim + 1)),
                 src[order], mode[order], self.occupations[src, mode][order])
        for array in table:
            array.flags.writeable = False
        return table

    def _lookup(self, keys):
        """Rows of the given keys, and which keys the basis holds."""
        pos = np.searchsorted(self._sorted_keys, keys).clip(max=self.dim - 1)
        return self._order[pos], self._sorted_keys[pos] == keys

    def index_of(self, occ_rows):
        """Indices of the given occupation rows; raises on misses."""
        occ_rows = np.atleast_2d(occ_rows)
        if np.any(occ_rows < 0) or np.any(occ_rows > self.cap):
            raise ValueError("occupation outside the basis")
        rows, found = self._lookup(occ_rows @ self._powers)
        if not np.all(found):
            raise ValueError("occupation outside the basis")
        return rows


def sector_basis(n_modes, total, modes=None):
    """All states with exactly `total` quanta across `n_modes` modes."""
    if n_modes < 1 or total < 0:
        raise ValueError("need n_modes >= 1 and total >= 0")
    occ = _occupations(n_modes, [total])
    return FockBasis("sector", n_modes, total, occ,
                     None if modes is None else np.asarray(modes))


def truncated_basis(n_modes, max_total, modes=None, standing=False):
    """All states with at most `max_total` quanta, ordered by total."""
    if n_modes < 1 or max_total < 0:
        raise ValueError("need n_modes >= 1 and max_total >= 0")
    occ = _occupations(n_modes, range(max_total + 1))
    return FockBasis("truncated", n_modes, max_total, occ,
                     None if modes is None else np.asarray(modes), standing)


def standing_wave_pairs(grid, modes):
    """Slot pairs (p, q) of the carried modes with k_q = -k_p and k_p > 0.
    The modes k = 0 and Nyquist are their own partners and pair with
    nothing."""
    slot = {int(m): p for p, m in enumerate(modes)}
    return [(p, slot[(-m) % grid.n_sites]) for p, m in enumerate(modes)
            if 0 < m < grid.n_sites // 2 and (-m) % grid.n_sites in slot]


def _slot_field(grid, basis, z, what):
    """Quadrature weight and the amplitudes of the field z at the basis
    slots: sites, plane-wave modes, or standing waves (the pair rotation
    of `FockBasis` acts on amplitudes as it acts on annihilators), of
    each column of a 2d z.  Raises ValueError off the carried modes."""
    z = np.asarray(z, dtype=complex)
    if basis.modes is None:
        return grid.dx, z
    keep = np.zeros(grid.n_sites, dtype=bool)
    keep[basis.modes] = True
    if np.any(z[~keep] != 0):
        raise ValueError(f"{what} has support outside the basis modes")
    z_sel = z[basis.modes]
    if basis.standing:
        for p, q in standing_wave_pairs(grid, basis.modes):
            zp, zq = z_sel[[p, q]]  # copies, also of rows of a 2d z
            z_sel[p] = (zp + zq) / np.sqrt(2.0)
            z_sel[q] = -1j * (zp - zq) / np.sqrt(2.0)
    return grid.dk, z_sel


def occupation_cap(mean, tail_budget, cap_max=10_000):
    """Smallest cap with Poisson(mean) tail mass above it, `pdtrc(cap,
    mean)`, <= budget, up to cap_max (then TruncationInsufficient)."""
    if mean < 0 or tail_budget <= 0:
        raise ValueError("need mean >= 0 and tail_budget > 0")
    for cap in range(cap_max + 1):
        if pdtrc(cap, mean) <= tail_budget:
            return cap
    raise TruncationInsufficient(f"no occupation cap up to {cap_max} meets "
                                 "the tail budget", pdtrc(cap_max, mean))


# ---------------------------------------------------------------------------
# operators


def annihilator(basis, f, quad, eps):
    """a(f) = sum_m sqrt(quad * eps) conj(f_m) b_m as CSR: the
    `FockBasis.lowering` table with the weight sqrt(quad) conj(f_m)
    sqrt(eps n) on each entry, and without the entries of modes where
    f_m = 0.  Real when f is; it owns all its arrays.  A sector basis
    raises SectorBasisUnsupported."""
    indptr, indices, mode, n = basis.lowering
    weight = (np.sqrt(quad) * np.conj(f))[mode]
    keep = weight != 0
    kept = np.concatenate(([0], np.cumsum(keep, dtype=indptr.dtype)))
    return sp.csr_matrix(
        (weight[keep] * np.sqrt(eps * n[keep]), indices[keep], kept[indptr]),
        shape=(basis.dim, basis.dim))


def ladder(basis, mode, eps):
    """The annihilator a_mode = sqrt(eps) b_mode, real."""
    return annihilator(basis, np.eye(basis.n_modes)[mode], 1.0, eps)


def dgamma_diagonal(basis, values, eps):
    """dGamma of a multiplication operator, as its diagonal
    eps * sum_m v_m n_m (a diagonal factor of a `ProductOperator`)."""
    return eps * (basis.occupations @ np.asarray(values))


def second_quantize(basis, a_matrix, eps):
    """dGamma(A) = eps * sum_ij A_ij b_i* b_j for a one-body matrix A.

    An off-diagonal A_ij hops by the key shift p_i - p_j (`FockBasis`),
    all i at once for each j.  Number conserving, so valid on sector and
    truncated bases alike; real when A is.
    """
    a_matrix = np.asarray(a_matrix)
    occ = basis.occupations
    n = basis.n_modes
    if a_matrix.shape != (n, n):
        raise ValueError(f"one-body matrix must be {n}x{n}")
    mat = sp.diags(eps * (occ @ np.diag(a_matrix)), format="csr",
                   dtype=np.result_type(a_matrix.dtype, float))
    rows, cols, vals = [], [], []
    for j in range(n):
        to = np.flatnonzero((a_matrix[:, j] != 0) & (np.arange(n) != j))
        src = np.flatnonzero(occ[:, j])
        shift = basis._powers[to] - basis._powers[j]
        tgt, _ = basis._lookup(basis._keys[src] + shift[:, None])
        rows.append(tgt.ravel())
        cols.append(np.broadcast_to(src, tgt.shape).ravel())
        vals.append((eps * a_matrix[to, j][:, None] * np.sqrt(
            occ[src, j] * (occ[src, to[:, None]] + 1.0))).ravel())
    return mat + sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=mat.shape)


def _accumulate(m, x, y):
    """y += m @ x on the leading y.shape[0] rows of m, a CSR matrix or
    the (data, indices, indptr) arrays of one, for a C-contiguous 2d y,
    by the kernel that scipy's csr @ dense calls after it has allocated
    and zero-filled its result; this allocates nothing for an x of the
    layout and dtype of y, nor for a leading-row slice.  The kernel
    promotes a real m on a complex block, as csr @ dense does."""
    data, indices, indptr = (m if isinstance(m, tuple)
                             else (m.data, m.indices, m.indptr))
    x = np.ascontiguousarray(x, dtype=y.dtype)
    rows = y.shape[0]
    csr_matvecs(rows, x.shape[0], x.shape[1], indptr[:rows + 1], indices,
                data, x.reshape(-1), y.reshape(-1))


class ProductOperator:
    """sum_a L_a (x) R_a over a nucleon (x) meson product basis of
    `dims` = (dimN, dimM), kept as its factor pairs (L_a, R_a).  A factor
    is None (the identity), a 1d array (a diagonal) or a sparse matrix.
    On the state reshaped to P (dimN x dimM) each pair acts as L P R^T,
    so applying the operator (`@`, to a vector or a block of columns)
    builds no product-space matrix; nor does propagating with it, which
    reads its spectral interval from the pairs as well
    (`_gershgorin_interval`)."""

    def __init__(self, terms, dims):
        self.terms = list(terms)
        self.dims = tuple(dims)
        # a pair with a meson matrix acts on the meson-major copy P^T as
        # R P^T L^T: CSR times C-ordered dense is scipy's fast product,
        # while P @ R^T goes through transposes (0.8 against 0.06 ms a
        # coupling pair at dim 113256, one BLAS thread on a 2-vCPU VM)
        self._meson_side = [(left, right.tocsr()) for left, right in self.terms
                            if right is not None and right.ndim == 2]
        self._nucleon_side = [
            (left if left is None or left.ndim == 1 else left.tocsr(), right)
            for left, right in self.terms if right is None or right.ndim == 1]
        # beside meson-side pairs, the pairs I (x) diag(R) start their sum
        self._meson_diagonal = None
        diagonals = [right for left, right in self._nucleon_side
                     if left is None and right is not None]
        if self._meson_side and diagonals:
            self._meson_diagonal = sum(diagonals[1:], diagonals[0])
            self._nucleon_side = [(left, right)
                                  for left, right in self._nucleon_side
                                  if left is not None or right is None]
        self._workspace = None  # see _matmat
        self.dtype = np.result_type(np.float64, *[
            f.dtype for pair in self.terms for f in pair if f is not None])
        self.dim = self.dims[0] * self.dims[1]
        self.shape = (self.dim, self.dim)

    def __matmul__(self, x):
        """The product with a vector or with a block of columns."""
        x = np.asarray(x)
        return self._matmat(x.reshape(self.dim, -1)).reshape(x.shape)

    def _matmat(self, x, out=None):
        """All k columns of x, of shape (dim, k), at once, into `out`,
        returned: a fresh array when None, else a C-contiguous array of
        the shape of x and the dtype of the product that shares no memory
        with x (ValueError otherwise).  On the state as P of shape (dimN,
        dimM, k), the meson-side pairs are summed over its meson-major
        copy into `far`, started by the pairs I (x) diag(R) (else at
        zero): a pair adds R P^T L^T by `_accumulate`, a diagonal L first
        scaling the copy into `out`, which is free until `far` is written
        into it, transposed, in one strided pass (else `out` starts at
        zero).  Each sparse nucleon factor then adds into `out` by
        `_accumulate`.  Pairs sparse on both sides (the B0 terms of
        `b_operators`) and diagonal nucleon pairs add through temporaries.
        The copy and `far` stay in `_workspace` for the next product of the
        same k and dtype."""
        (dim_n, dim_m), k = self.dims, x.shape[1]
        dtype = np.result_type(self.dtype, x.dtype)
        if out is None:
            out = np.empty(x.shape, dtype)
        elif (out.shape != x.shape or out.dtype != dtype
              or not out.flags.c_contiguous or np.may_share_memory(out, x)):
            raise ValueError(
                f"out must be a C-contiguous {dtype} array of shape "
                f"{x.shape} that shares no memory with x")
        state, result = (a.reshape(dim_n, dim_m, k) for a in (x, out))
        if self._meson_side:
            shape, work = (dim_m, dim_n, k), self._workspace
            if work is None or work.shape[1:] != shape or work.dtype != dtype:
                work = self._workspace = np.empty((2,) + shape, dtype)
            meson_major, far = work
            meson_major[...] = state.transpose(1, 0, 2)
            if self._meson_diagonal is None:
                far.fill(0.0)
            else:
                np.multiply(self._meson_diagonal[:, None, None], meson_major,
                            out=far)
            paired = []
            for left, right in self._meson_side:
                if left is not None and left.ndim == 2:
                    paired.append((left, right))
                    continue
                src = meson_major if left is None else np.multiply(
                    meson_major, left[:, None], out=out.reshape(shape))
                _accumulate(right, src.reshape(dim_m, -1),
                            far.reshape(dim_m, -1))
            result[...] = far.transpose(1, 0, 2)
            for left, right in paired:
                term = (right @ meson_major.reshape(dim_m, -1)).reshape(shape)
                result += (left @ term.transpose(1, 0, 2).reshape(dim_n, -1)
                           ).reshape(state.shape)
        else:
            result.fill(0.0)
        for left, right in self._nucleon_side:
            term = state if right is None else state * right[:, None]
            if left is not None and left.ndim == 2:
                _accumulate(left, term.reshape(dim_n, -1),
                            out.reshape(dim_n, -1))
            else:
                result += term if left is None else left[:, None, None] * term
        return out

    def toarray(self):
        """Dense matrix, all columns in one block; for small dims and tests.
        The block's dim x dim workspace is not kept."""
        dense = self @ np.eye(self.dim, dtype=self.dtype)
        self._workspace = None
        return dense


# ---------------------------------------------------------------------------
# states


def _poisson_amplitudes(alpha, occupations, cap):
    """Product of alpha_m^n / sqrt(n!) down each occupation row, by the
    cumulative products of alpha_m / sqrt(k): no factorial overflows."""
    steps = np.ones((alpha.shape[0], cap + 1), dtype=complex)
    steps[:, 1:] = alpha[:, None] / np.sqrt(np.arange(1.0, cap + 1))
    table = np.cumprod(steps, axis=1)
    return np.prod(table[np.arange(alpha.shape[0]), occupations], axis=1)


def coherent_state(grid, basis, z, eps):
    """Coherent (or fixed-number) state at the field configuration z.

    Over a truncated basis the product-Poisson amplitudes are cut at the
    cap and renormalised; returns (vector, deficit) where deficit is the
    probability mass lost to the cut.  Over a nucleon sector basis the
    state is the symmetrised power of z1 (deficit exactly zero).
    """
    quad, z_sel = _slot_field(grid, basis, z, "field")
    if basis.kind == "sector":
        nrm = np.sqrt(quad) * np.linalg.norm(z_sel)
        if nrm == 0:
            raise ValueError("sector state needs a nonzero field")
        # times (N!)^(1/2N): amplitudes near the multinomial sqrt(N!) ones
        u = np.sqrt(quad) * z_sel / nrm * np.exp(
            lgamma(basis.cap + 1.0) / (2.0 * max(basis.cap, 1)))
        amps = _poisson_amplitudes(u, basis.occupations, basis.cap)
        vec = amps / np.linalg.norm(amps)
        return vec, 0.0
    alpha = z_sel * np.sqrt(quad / eps)
    amps = _poisson_amplitudes(alpha, basis.occupations, basis.cap)
    amps *= np.exp(-0.5 * np.vdot(alpha, alpha).real)
    kept = float(np.vdot(amps, amps).real)
    deficit = max(1.0 - kept, 0.0)
    return amps / np.sqrt(kept), deficit


# ---------------------------------------------------------------------------
# Chebyshev propagator

# the Bessel coefficients a Chebyshev series leaves out sum to at most this
_CHEBYSHEV_TAIL = 1e-15
# relative change of the norm beyond which a propagated vector is rejected
_NORM_TOLERANCE = 1e-10


def _gershgorin_interval(op):
    """[lo, hi] holding the spectrum of a Hermitian `ProductOperator`,
    read from its factor pairs.  A pair (L, R) puts diag L (x) diag R on
    the diagonal and r(L) (x) r(R) - |diag L| (x) |diag R| off it, row by
    row, with r the row sums of |.|.  Summed over the pairs these give the
    centres Re h_jj and, by the triangle inequality, radii of at least
    sum_{k != j} |h_jk|: the union of discs holds the Gershgorin discs of
    the assembled matrix, and is them when the pairs' off-diagonal
    patterns are disjoint."""
    centre, radius = np.zeros(op.dims, op.dtype), np.zeros(op.dims)
    for pair in op.terms:
        diags, sums = [], []
        for factor, n in zip(pair, op.dims):
            factor = np.ones(n) if factor is None else factor
            diagonal = factor.ndim == 1
            diags.append(factor if diagonal else factor.diagonal())
            sums.append(np.abs(factor) if diagonal
                        else abs(factor) @ np.ones(n))
        diag = np.multiply.outer(*diags)
        centre += diag
        radius += np.multiply.outer(*sums) - np.abs(diag)
    return (float(np.min(centre.real - radius)),
            float(np.max(centre.real + radius)))


def _chebyshev_length(radius):
    """Fewest terms K with 2 sum_{k >= K} |J_k(radius)| <= _CHEBYSHEV_TAIL.
    From |J_k(x)| <= (x/2)^k / k!: once q = x / (2(k + 1)) < 1 these
    bounds fall by at least the factor q per term, so their sum from k on
    is at most (x/2)^k / k! / (1 - q).  Twice that meets the tail first
    at L; J_0 ... J_L are then taken by jv, and K is the fewest terms
    whose tail up to J_L, plus the bound past J_L, still meets it."""
    def bound(k):  # log of the bound on sum_{j >= k} |J_j|
        q = radius / (2.0 * (k + 1))
        return (k * log(radius / 2.0) - lgamma(k + 1.0) - log1p(-q)
                if q < 1.0 else inf)

    k = 0
    while bound(k) > log(_CHEBYSHEV_TAIL / 2.0):
        k += 1
    tails = np.cumsum(np.abs(jv(np.arange(k, -1, -1), radius)))[::-1]
    tails += exp(bound(k + 1))
    return int(np.count_nonzero(2.0 * tails[:k] > _CHEBYSHEV_TAIL))


def _scaled_shifted(op, scale, shift):
    """scale (op - shift) as a `ProductOperator` over the factor pairs of
    op: one factor of each pair scaled, and the shift taken into the
    first pair I (x) diag(R), or into such a pair appended when op has
    none, so that a product with it costs what one with op does."""
    terms, shifted = [], False
    for left, right in op.terms:
        if left is None and right is None:
            right = np.ones(op.dims[1])
        if left is None and right.ndim == 1 and not shifted:
            right, shifted = scale * (right - shift), True
        elif left is not None:
            left = scale * left
        else:
            right = scale * right
        terms.append((left, right))
    if not shifted:
        terms.append((None, np.full(op.dims[1], -scale * shift)))
    return ProductOperator(terms, op.dims)


def _chebyshev_sums(x2, parts, coeffs, planes):
    """For each (v, parities) of `parts`, add sum_k f_k coeffs[j, k]
    T_k(X) v into planes[p, j] for each row j of `coeffs`, (f_k, p) =
    parities[k % 2], with x2 = 2X.  T_k(X) v runs the three-term
    recurrence T_1 = x2 T_0 / 2, T_{k+1} = x2 T_k - T_{k-1}: one product
    and one vector pass a term, and each T_k(X) v serves every row.  T_k
    sits in vector k % 3 of one (3, v.size) buffer for all parts, freed
    on return; T_0 is copied in, so v is never written and may be
    strided (T_0 is last read at k = 2, before T_3 overwrites it)."""
    # y += a x and x *= a by BLAS on flat views: every array here is
    # contiguous and of the dtype of planes, so BLAS writes through them
    axpy, scal = get_blas_funcs(("axpy", "scal"), (planes,))
    kept = np.empty((3, planes.shape[2]), planes.dtype)
    for v, parities in parts:
        kept[0].reshape(v.shape)[...] = v
        prev, cur = None, kept[0].reshape(v.shape[0], -1)
        for k in range(coeffs.shape[1]):
            if k > 0:
                nxt = x2._matmat(cur, out=kept[k % 3].reshape(cur.shape))
                if prev is None:
                    scal(0.5, nxt.reshape(-1))
                else:
                    axpy(prev.reshape(-1), nxt.reshape(-1), a=-1.0)
                prev, cur = cur, nxt
            factor, plane = parities[k % 2]
            for j in np.nonzero(coeffs[:, k])[0]:
                axpy(cur.reshape(-1), planes[plane, j],
                     a=factor * coeffs[j, k])


def _expm_hermitian(h, taus, v):
    """exp(-i tau h) v for every tau in `taus`, for a Hermitian
    `ProductOperator` h and a 1d v or a 2d block v (each column
    propagated), as an array (len(taus),) + v.shape, by the Chebyshev
    series of Tal-Ezer and Kosloff, which needs only products with h and
    an interval holding its spectrum.  With that interval [c - d, c + d]
    (the `_gershgorin_interval` of the factor pairs of h) and
    X = (h - c)/d,

        exp(-i tau h) = e^{-i tau c} sum_k (2 - delta_k0) (-i)^k
                        J_k(tau d) T_k(X),

    each tau cut after its own `_chebyshev_length(|tau| d)` terms, and
    one recurrence serves all taus.  It runs on 2X = (2/d)(h - c), built
    once from the pairs of h (`_scaled_shifted`), so that no term pays
    for the shift and scale.  As (-i)^k is (-1)^{k//2} for even k and
    -i (-1)^{k//2} for odd k, the sum is E - i O, with real coefficients
    in the even part E and the odd part O.  A real h runs in real
    arithmetic, on the real and the imaginary part of v in turn.  A tau
    of zero, or a zero-width interval, gives the phase alone, and no 2X
    is built.  The bound holds only for a Hermitian h: a non-finite
    interval, or a result that is not finite or whose norm differs from
    that of v by more than _NORM_TOLERANCE relative, raises
    StepSizeRejected."""
    v = np.asarray(v, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    lo, hi = _gershgorin_interval(h)
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    radii = np.abs(taus) * half
    if not np.all(np.isfinite(radii)):
        raise StepSizeRejected(
            f"no finite Chebyshev interval: taus={taus}, spectrum in "
            f"[{lo}, {hi}]")
    lengths = np.array([_chebyshev_length(r) if r > 0 else 1 for r in radii])
    k = np.arange(lengths.max())
    coeffs = np.where(k < lengths[:, None],
                      (-1.0) ** (k // 2) * jv(k, (taus * half)[:, None]), 0.0)
    coeffs[:, 1:] *= 2.0
    x2 = _scaled_shifted(h, 2.0 / half, center) if k.size > 1 else None
    if np.iscomplexobj(h):
        planes = np.zeros((1, len(taus), v.size), dtype=complex)
        _chebyshev_sums(x2, [(v, ((1.0, 0), (-1j, 0)))], coeffs, planes)
        out = planes[0]
    else:
        # (E - i O)(v_re + i v_im) = (E v_re + O v_im) + i (E v_im - O v_re),
        # summed in contiguous planes (BLAS adds into strided ones slower)
        planes = np.zeros((2, len(taus), v.size))
        _chebyshev_sums(x2, [(v.real, ((1.0, 0), (-1.0, 1))),
                             (v.imag, ((1.0, 1), (1.0, 0)))], coeffs, planes)
        out = np.empty(planes.shape[1:], dtype=complex)
        out.real, out.imag = planes
    out *= np.exp(-1j * taus * center)[:, None]
    norm_in = np.linalg.norm(v)
    for norm_out in np.linalg.norm(out, axis=1):
        if not abs(norm_out - norm_in) <= _NORM_TOLERANCE * norm_in:
            raise StepSizeRejected(
                f"Chebyshev propagation changed the norm from {norm_in:.6e} "
                f"to {norm_out:.6e}: the generator is not Hermitian")
    return out.reshape(taus.shape + v.shape)


# ---------------------------------------------------------------------------
# Weyl generators


def weyl_generator(grid, basis, xi, eps):
    """Anti-Hermitian X with W(xi) = exp(X) on a single Fock factor:
    X = (i/sqrt(2)) (a*(xi) + a(xi)) with the smeared annihilator
    a(xi) = sum_m sqrt(quad * eps) conj(xi_m) b_m (`annihilator`).  A
    sector basis raises SectorBasisUnsupported, as its lowering table
    does."""
    quad, xi_sel = _slot_field(grid, basis, xi, "argument")
    a_xi = annihilator(basis, xi_sel, quad, eps)
    return ((1j / np.sqrt(2.0)) * (a_xi.getH() + a_xi)).tocsr()


def _dense_weyl(grid, basis, xi, eps):
    """exp of the capped generator, dense, for the identity checks; it
    departs from the untruncated W(xi) near the cap."""
    return expm(weyl_generator(grid, basis, xi, eps).toarray())


# ---------------------------------------------------------------------------
# property checkers


def resolvent_bound_ratio(y1, y2, cap, eps):
    """Ratio of ||(dGamma(y2*y2+1)+1)^{-1} dGamma(y1)|| to its bound.

    The bound is (1+sqrt(2))||(y2+1)^{-1}y1|| on the one-mode space.
    Both second quantizations conserve total occupation, so the full
    operator is block diagonal over occupation sectors and its
    restriction to a capped basis is exact: the ratio must stay at or
    below 1 for every cap and eps.
    """
    y1 = np.asarray(y1, dtype=complex)
    y2 = np.asarray(y2, dtype=complex)
    n_modes = y1.shape[0]
    if y1.shape != (n_modes, n_modes) or y2.shape != (n_modes, n_modes):
        raise ValueError("y1 and y2 must be square matrices of equal size")
    basis = truncated_basis(n_modes, cap)
    eye1 = np.eye(n_modes)
    weight = second_quantize(basis, y2.conj().T @ y2 + eye1, eps).toarray()
    lifted = second_quantize(basis, y1, eps).toarray()
    resolvent_applied = np.linalg.solve(
        weight + np.eye(basis.dim), lifted)
    value = np.linalg.norm(resolvent_applied, 2)
    bound = (1.0 + np.sqrt(2.0)) * np.linalg.norm(
        np.linalg.solve(y2 + eye1, y1), 2)
    return float(value / bound)


def _core_projector(basis, margin):
    """Indicator of total occupation at most cap - margin."""
    keep = basis.occupations.sum(axis=1) <= basis.cap - margin
    if not np.any(keep):
        raise ValueError("core margin removes every state")
    return keep.astype(float)


def weyl_conjugation_identities(grid, basis, xi, eta, y_matrix, eps,
                                core_margin=4):
    """Residuals of the Weyl conjugation and composition identities on a
    single truncated factor, measured in operator norm on the core of
    states at least `margin` quanta below the cap (where cap effects
    cannot reach).  Returns {name: residual}."""
    if basis.kind != "truncated":
        raise ValueError("identity checks need a truncated basis")
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    y_matrix = np.asarray(y_matrix, dtype=complex)
    quad, xi_sel = _slot_field(grid, basis, xi, "argument")
    _, eta_sel = _slot_field(grid, basis, eta, "argument")

    w_xi = _dense_weyl(grid, basis, xi, eps)
    w_eta = _dense_weyl(grid, basis, eta, eps)
    w_sum = _dense_weyl(grid, basis, xi + eta, eps)
    core = _core_projector(basis, core_margin)

    def core_norm(mat):
        return float(np.linalg.norm(core[:, None] * mat * core[None, :], 2))

    dgam = second_quantize(basis, y_matrix, eps).toarray()
    y_xi = y_matrix @ xi_sel
    a_yxi = annihilator(basis, y_xi, quad, eps).toarray()
    pairing = quad * np.vdot(xi_sel, y_xi)
    rhs = (dgam
           + (1j * eps / np.sqrt(2.0)) * (a_yxi.conj().T - a_yxi)
           + (eps ** 2 / 2.0) * pairing * np.eye(basis.dim))
    out = {"dgamma_conjugation": core_norm(
        w_xi.conj().T @ dgam @ w_xi - rhs)}

    shift = 1j * eps / np.sqrt(2.0) * np.sqrt(quad)
    worst = 0.0
    for m in range(basis.n_modes):
        a_m = ladder(basis, m, eps).toarray()
        res = w_xi.conj().T @ a_m @ w_xi - a_m \
            - shift * xi_sel[m] * np.eye(basis.dim)
        worst = max(worst, core_norm(res))
    out["ladder_displacement"] = worst

    phase = np.exp(-0.5j * eps * np.imag(quad * np.vdot(xi_sel, eta_sel)))
    out["composition"] = core_norm(w_xi @ w_eta - phase * w_sum)
    out["unitarity"] = float(np.linalg.norm(
        w_xi.conj().T @ w_xi - np.eye(basis.dim), 2))
    return out
