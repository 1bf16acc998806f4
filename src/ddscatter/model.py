"""The double-delta scattering model.

Dimensionless Hamiltonian H = -d^2/dx^2 + z_+ delta(x-a) + z_- delta(x+a)
with complex couplings z_+- and half-separation a > 0.  This module holds
the nondimensionalization map, the exact scattering eigenfunctions, the
transfer matrix, and the 2x2 overlap matrix K between the conjugated and
original eigenfamilies; Couplings.conjugate gives the conjugated model.
The entry M_22 and its k-derivative come from one evaluator in sigma =
z_+ + z_- and pi = z_+ z_- (m22, m22_with_derivative): a scalar k gives
np.complex128 values, an array k arrays.  One check on k serves both and
the transfer matrix, which takes a scalar k only: a k that is not
finite, or is 0, raises DomainError.

Conventions: theta(0) = 1/2 and sign(0) = 0 throughout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PhysicalContext",
    "Couplings",
    "ScatteringBranch",
    "nondimensionalize",
    "dimensionalize",
    "theta",
    "psi_eval",
    "transfer_matrix",
    "m22",
    "m22_with_derivative",
    "k_matrix",
    "smeared_overlap_check",
]


def theta(x):
    """Step function with the midpoint convention theta(0) = 1/2."""
    return 0.5 * (np.sign(x) + 1.0)


@dataclass(frozen=True)
class PhysicalContext:
    """Dimensionful description: mass, hbar, length scale, half-separation
    alpha, and the complex coupling strengths (energy times length)."""

    mass: float
    hbar: float
    length_scale: float
    alpha: float
    zeta_plus: complex
    zeta_minus: complex

    def __post_init__(self):
        fields = [self.mass, self.hbar, self.length_scale, self.alpha]
        if not np.all(np.isfinite(fields + [self.zeta_plus, self.zeta_minus])):
            raise DomainError("physical parameters and couplings must be finite")
        if min(fields) <= 0:
            raise DomainError("mass, hbar, length_scale and alpha must be positive")

    def energy_scale(self) -> float:
        """Multiply dimensionless energies by this to recover physical ones."""
        return self.hbar**2 / (2 * self.mass * self.length_scale**2)


@dataclass(frozen=True)
class Couplings:
    """Dimensionless couplings (z_plus, z_minus) and half-separation a."""

    z_plus: complex
    z_minus: complex
    a: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.z_plus, self.z_minus, self.a])):
            raise DomainError("couplings and half-separation must be finite")
        if self.a <= 0:
            raise DomainError("half-separation a must be positive")

    @property
    def im_antisymmetric(self) -> bool:
        """True when Im(z_+) = -Im(z_-), the class with a bounded metric."""
        scale = max(1.0, abs(self.z_plus), abs(self.z_minus))
        return abs(self.z_plus.imag + self.z_minus.imag) <= 1e-12 * scale

    def conjugate(self) -> "Couplings":
        """The conjugated model, z_pm -> conj(z_pm): the one such map."""
        return Couplings(np.conj(self.z_plus), np.conj(self.z_minus), self.a)


@dataclass(frozen=True)
class ScatteringBranch:
    """Degeneracy label (1 or 2) and positive wave number."""

    branch: int
    k: float

    def __post_init__(self):
        if self.branch not in (1, 2):
            raise DomainError("branch must be 1 or 2")
        if self.k <= 0:
            raise DomainError("wave number k must be positive")

    @property
    def signed_k(self) -> float:
        """Branch 2 is branch 1 evaluated at -k."""
        return self.k if self.branch == 1 else -self.k


def nondimensionalize(ctx: PhysicalContext) -> Couplings:
    """z_pm = 2 m l zeta_pm / hbar^2, a = alpha / l."""
    f = 2 * ctx.mass * ctx.length_scale / ctx.hbar**2
    return Couplings(f * ctx.zeta_plus, f * ctx.zeta_minus, ctx.alpha / ctx.length_scale)


def dimensionalize(c: Couplings, mass: float, hbar: float, length_scale: float) -> PhysicalContext:
    """Inverse of nondimensionalize for a given (mass, hbar, length scale)."""
    f = hbar**2 / (2 * mass * length_scale)
    return PhysicalContext(
        mass=mass,
        hbar=hbar,
        length_scale=length_scale,
        alpha=c.a * length_scale,
        zeta_plus=f * c.z_plus,
        zeta_minus=f * c.z_minus,
    )


def _psi_raw(z_plus, z_minus, k, a, x):
    """Branch-1 eigenfunction at signed wave number k (exact solution).

    Plane wave e^{ikx}/sqrt(2 pi) on (-a, a); the delta matching conditions
    add reflected pieces outside.  Vectorized in x.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(1j * k * x)
    val = (
        e
        - (1j * z_minus / (2 * k))
        * (np.exp(-1j * k * (x + 2 * a)) - e)
        * theta(-x - a)
        - (1j * z_plus / (2 * k))
        * (e - np.exp(-1j * k * (x - 2 * a)))
        * theta(x - a)
    )
    return val / np.sqrt(2 * np.pi)


def psi_eval(c: Couplings, s: ScatteringBranch, x):
    """Scattering eigenfunction psi_{branch,k}(x); continuous across +-a."""
    out = _psi_raw(c.z_plus, c.z_minus, s.signed_k, c.a, x)
    if np.ndim(x) == 0:
        return complex(out)
    return out


def _single_delta_matrix(z, c, k):
    """Transfer matrix of one delta of strength z at position c: the
    derivative jump psi'(c+) - psi'(c-) = z psi(c) in (A, B) amplitude
    coordinates psi = A e^{ikx} + B e^{-ikx}."""
    u = z / (2j * k)
    return np.array(
        [
            [1 + u, u * np.exp(-2j * k * c)],
            [-u * np.exp(2j * k * c), 1 - u],
        ],
        dtype=complex,
    )


def transfer_matrix(c: Couplings, k):
    """Left-to-right transfer matrix M = M_{+a}(z_+) M_{-a}(z_-); det M = 1.
    k is a scalar, checked as by m22; an array k raises DomainError."""
    k = _finite_k(k, "transfer_matrix")
    if np.ndim(k) != 0:
        raise DomainError("transfer_matrix takes a scalar k, not an array")
    k = complex(k)
    return _single_delta_matrix(c.z_plus, c.a, k) @ _single_delta_matrix(c.z_minus, -c.a, k)


def _finite_k(k, name):
    """k as a numpy complex scalar when it is 0-d, else as a complex
    ndarray: the one check on k of M_22 and the transfer matrix.
    DomainError when an entry is not finite or is 0, the pole of both."""
    k = np.asarray(k, dtype=complex)
    if k.ndim == 0:
        # one Newton step: scalar arithmetic costs a fraction of a 0-d
        # array's, and cmath checks it in a fifth of numpy's time
        k = k[()]
        finite, nonzero = cmath.isfinite(k), k != 0
    else:
        finite, nonzero = np.isfinite(k).all(), np.count_nonzero(k) == k.size
    if not finite:
        raise DomainError(f"{name} requires a finite k")
    if not nonzero:
        raise DomainError(f"{name} is singular at k = 0")
    return k


def _m22_terms(sigma, pi, a, k):
    """Yields M_22, then dM_22/dk, from sigma = z_+ + z_- and pi = z_+ z_-,
    broadcast over all four arguments.  With e = e^{4iak} and t = i/(2k),
    dt/dk = -t/k:

        M_22  = 1 + sigma t + pi t^2 (1 - e),
        M_22' = -(sigma t + 2 pi t^2 (1 - e))/k - 4ia pi t^2 e.

    A caller that needs only M_22 stops after the first: contour sampling
    then spends no array operations on the derivative.
    """
    t = 0.5j / k
    e = np.exp(4j * a * k)
    sigma_t = sigma * t
    pi_t2 = pi * t * t
    pole = pi_t2 * (1 - e)
    yield 1 + sigma_t + pole
    yield -(sigma_t + 2 * pole) / k - 4j * a * pi_t2 * e


def m22(c: Couplings, k):
    """M_22 entry in closed form, vectorized over k: the first entry of
    m22_with_derivative.  A scalar k gives an np.complex128, an array k
    an array of its shape.

    Zeros on the real axis are spectral singularities; zeros in the upper
    half plane are bound states (E = k^2).  A k that is not finite, or is
    0, raises DomainError.  No floating-point state is set here: far below
    the real axis e^{4iak} overflows, and numpy warns of it.
    """
    k = _finite_k(k, "m22")
    return next(_m22_terms(c.z_plus + c.z_minus, c.z_plus * c.z_minus, c.a, k))


def m22_with_derivative(c: Couplings, k):
    """(M_22, dM_22/dk) in closed form, vectorized over k, from the one
    evaluator in sigma = z_+ + z_- and pi = z_+ z_-; with u_pm = z_pm/(2ik),
    t = i/(2k) and e = e^{4iak},

        M_22 = (1 - u_+)(1 - u_-) - u_+ u_- e = 1 + sigma t + pi t^2 (1 - e).

    The first entry equals m22(c, k) bit for bit; a scalar k gives two
    np.complex128 values.  k is checked as by m22.
    """
    k = _finite_k(k, "m22_with_derivative")
    value, slope = _m22_terms(c.z_plus + c.z_minus, c.z_plus * c.z_minus, c.a, k)
    return value, slope


def k_matrix(c: Couplings, k: float):
    """Overlap matrix K at equal wave number: <psi^{z*}_a | psi^z_b> =
    delta(k-q) K_ab.  Entries in closed form."""
    if not (np.isfinite(k) and k > 0):
        raise DomainError("k_matrix requires a finite k > 0")
    zp, zm, a = c.z_plus, c.z_minus, c.a
    diag = 1 + (zm * zm + zp * zp) / (4 * k * k)

    def k12(kk):
        return (
            1j * zm * (2 * kk - 1j * zm) * np.exp(2j * a * kk)
            - 1j * zp * (2 * kk + 1j * zp) * np.exp(-2j * a * kk)
        ) / (4 * kk * kk)

    return np.array([[diag, k12(k)], [k12(-k), diag]], dtype=complex)


def smeared_overlap_check(c: Couplings, k0: float, q0: float, width: float):
    """Direct check of the distributional overlap relation.

    Smears both eigenfamilies with Gaussians (std ``width``) centred at k0
    and q0, computes the 2x2 matrix of L2 overlaps, and normalizes by the
    free-theory diagonal sqrt(pi)*width.  As width -> 0 the result tends
    to K(c, k0) for k0 = q0 and to 0 for |k0 - q0| >> width.
    Simpson's rule on one fixed grid, not integrate_panels: at width 0.025
    the range is 680 wide and oscillates throughout, and 400 panels cannot
    hold two levels there (QuadratureError with an infinite bound).
    """
    if not (k0 > 3 * width > 0 and q0 > 3 * width > 0):
        raise DomainError("need k0, q0 > 3*width > 0")

    nodes, wts = np.polynomial.legendre.leggauss(80)

    def packets(center, couplings):
        lo, hi = center - 6 * width, center + 6 * width
        ks = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wts * np.exp(-((ks - center) ** 2) / (2 * width**2))

        def eval_pair(x):
            # returns (branch1, branch2) smeared amplitudes at x, vectorized
            xs = np.asarray(x, dtype=float)[..., None]
            f1 = _psi_raw(couplings.z_plus, couplings.z_minus, ks, couplings.a, xs)
            f2 = _psi_raw(couplings.z_plus, couplings.z_minus, -ks, couplings.a, xs)
            return f1 @ ws, f2 @ ws

        return eval_pair

    bra = packets(k0, c.conjugate())
    ket = packets(q0, c)

    # envelope exp(-width^2 x^2 / 2): integrate where it is > 1e-14
    xmax = 8.5 / width
    n = int(np.ceil(2 * xmax / min(0.15, 0.3 / max(k0, q0, 1.0)))) | 1
    xs = np.linspace(-xmax, xmax, n)
    b1, b2 = bra(xs)
    t1, t2 = ket(xs)
    from scipy.integrate import simpson

    s = np.array(
        [
            [simpson(np.conj(b1) * t1, x=xs), simpson(np.conj(b1) * t2, x=xs)],
            [simpson(np.conj(b2) * t1, x=xs), simpson(np.conj(b2) * t2, x=xs)],
        ],
        dtype=complex,
    )
    norm = np.sqrt(np.pi) * width
    return s / norm
