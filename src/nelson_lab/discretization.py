"""Periodic grid, dispersion, and one-body operators.

Conventions used throughout the package:

* position grid   x_j = -L + j*dx,  dx = 2L/G,  j = 0..G-1
* momentum grid   k_m = (pi/L)*m' in FFT order (m' = 0, 1, .., G/2-1,
  -G/2, .., -1),  dk = pi/L,  so dx*dk = 2*pi/G
* quadrature norms  |u|_x^2 = dx * sum_j |u_j|^2,
  |w|_k^2 = dk * sum_m |w_m|^2
* forward transform  (F u)_m = (dx/sqrt(2 pi)) * sum_j e^{-i k_m x_j} u_j,
  unitary between the two quadrature norms (Parseval holds exactly).

The phase matrix E[m, j] = e^{-i k_m x_j} is precomputed once per grid and
reused by the transforms, the Duhamel B-operators, and the spectral
kinetic matrix K = (1/G) E^H diag(k^2/2M) E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDispersion

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class Grid:
    """Uniform periodic grid on [-L, L) with FFT-ordered dual modes."""

    n_sites: int
    half_length: float

    dx: float = field(init=False)
    dk: float = field(init=False)
    x: np.ndarray = field(init=False)
    k: np.ndarray = field(init=False)
    phases: np.ndarray = field(init=False)  # E[m, j] = exp(-i k_m x_j)

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError("n_sites must be an even integer >= 2")
        if not self.half_length > 0.0:
            raise ValueError("half_length must be positive")
        g = self.n_sites
        self.dx = 2.0 * self.half_length / g
        self.dk = np.pi / self.half_length
        self.x = -self.half_length + self.dx * np.arange(g)
        self.k = 2.0 * np.pi * np.fft.fftfreq(g, d=self.dx)
        self.phases = np.exp(-1j * np.outer(self.k, self.x))

    def to_momentum(self, u: np.ndarray) -> np.ndarray:
        """Unitary transform from site samples to mode samples."""
        return (self.dx / SQRT_2PI) * (self.phases @ u)

    def to_position(self, w: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_momentum`."""
        return (self.dk / SQRT_2PI) * (self.phases.conj().T @ w)

    def inner_x(self, u: np.ndarray, v: np.ndarray) -> complex:
        """Quadrature inner product dx * <u, v> (antilinear in u)."""
        return self.dx * np.vdot(u, v)

    def inner_k(self, w: np.ndarray, v: np.ndarray) -> complex:
        """Quadrature inner product dk * <w, v> (antilinear in w)."""
        return self.dk * np.vdot(w, v)

    def norm_x(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.dx) * np.linalg.norm(u))

    def norm_k(self, w: np.ndarray) -> float:
        return float(np.sqrt(self.dk) * np.linalg.norm(w))


@dataclass
class ModelParams:
    """Physical parameters of the coupled nucleon-meson model.

    potential and chi are per-site / per-mode samples on a fixed grid;
    use the preset helpers below to build them.
    """

    mass: float  # nucleon mass M
    meson_mass: float  # m0 >= 0 in omega(k) = sqrt(k^2 + m0^2)
    charge: float  # lambda; classical nucleon field is held at |z1| = lambda
    potential: np.ndarray  # external potential V sampled at grid.x
    chi: np.ndarray  # coupling weight sampled at grid.k (real)
    omega_floor: float = 1e-8

    def __post_init__(self):
        self.potential = np.asarray(self.potential, dtype=float)
        self.chi = np.asarray(self.chi, dtype=float)
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.meson_mass < 0.0:
            raise ValueError("meson_mass must be nonnegative")
        if self.charge <= 0.0:
            raise ValueError("charge must be positive")


def dispersion(k: np.ndarray, meson_mass: float) -> np.ndarray:
    """Relativistic dispersion omega(k) = sqrt(k^2 + m0^2)."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(k * k + meson_mass**2)


def coupling_weight(grid: Grid, params: ModelParams) -> np.ndarray:
    """Per-mode smearing weight chi(k)/sqrt(omega(k)).

    Modes with chi == 0 get weight exactly 0.  Raises DegenerateDispersion
    if chi is nonzero at a mode whose dispersion lies below
    params.omega_floor.
    """
    omega = dispersion(grid.k, params.meson_mass)
    bad = (np.abs(params.chi) > 0.0) & (omega < params.omega_floor)
    if np.any(bad):
        m = int(np.argmax(bad))
        raise DegenerateDispersion(m, float(omega[m]), params.omega_floor)
    weight = np.zeros_like(omega)
    ok = omega >= params.omega_floor
    weight[ok] = params.chi[ok] / np.sqrt(omega[ok])
    return weight


def covered_modes(grid: Grid, params: ModelParams, *fields) -> np.ndarray:
    """Grid modes a meson basis must carry: the support of the coupling
    weight and of each given mode field, or the middle mode if all of
    them vanish."""
    mask = coupling_weight(grid, params) != 0
    for f in fields:
        mask = mask | (np.asarray(f) != 0)
    modes = np.nonzero(mask)[0]
    return modes if modes.size else np.array([grid.n_sites // 2])


def one_body_hamiltonian(grid: Grid, params: ModelParams) -> np.ndarray:
    """Dense one-nucleon Hamiltonian h1 = -Lap/(2M) + V on the grid.

    The Laplacian is the spectral one: K = (1/G) E^H diag(k^2/2M) E, which
    is real symmetric because the multiplier is even in k.
    """
    if params.potential.shape != (grid.n_sites,):
        raise ValueError("potential must be sampled on grid.x")
    mult = grid.k**2 / (2.0 * params.mass)
    kin = (grid.phases.conj().T * mult) @ grid.phases / grid.n_sites
    kin = kin.real
    kin = 0.5 * (kin + kin.T)
    return kin + np.diag(params.potential)


def chi_gaussian(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    """Gaussian coupling weight A * exp(-k^2 / (2 w^2)) sampled at grid.k."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    return amplitude * np.exp(-grid.k**2 / (2.0 * width**2))


def chi_sharp_band(
    grid: Grid, amplitude: float, k_lo: float, k_hi: float
) -> np.ndarray:
    """Indicator coupling weight A * 1[k_lo <= |k| <= k_hi] at grid.k."""
    if not 0.0 <= k_lo <= k_hi:
        raise ValueError("need 0 <= k_lo <= k_hi")
    absk = np.abs(grid.k)
    return amplitude * ((absk >= k_lo) & (absk <= k_hi)).astype(float)


def potential_preset(grid: Grid, kind: str, strength: float = 1.0) -> np.ndarray:
    """Sampled external potential: 'zero', 'harmonic' (s*x^2), or
    'quartic' (s*x^4)."""
    if kind == "zero":
        return np.zeros(grid.n_sites)
    if kind == "harmonic":
        return strength * grid.x**2
    if kind == "quartic":
        return strength * grid.x**4
    raise ValueError(f"unknown potential preset {kind!r}")
