"""Equivalent Hermitian Hamiltonian and pseudo-Hermitian observables.

The nonlocal Hermitian kernel equivalent to the non-Hermitian double-delta
Hamiltonian (valid on the class Im(z_+) = -Im(z_-)), its action on wave
functions, Gaussian-packet energy expectation values (quadrature oracle
plus closed forms built on the complex error function), and the
first-order pseudo-Hermitian position and momentum kernels.

All energies are dimensionless (2 m l^2 E_phys / hbar^2); conversion to
physical units happens at the CLI boundary via PhysicalContext.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedCouplingError
from .kernels import DistributionalKernel, KernelPrimitive, KernelTerm, _packet_box, _panel_width
from .model import Couplings, theta
from .numerics import DEFAULT_SPEC, QuadratureSpec, integrate_panels

__all__ = [
    "GaussianPacket",
    "EnergyBreakdown",
    "ApplyHResult",
    "gaussian_segment_integral",
    "h_kernel",
    "apply_h",
    "energy_quadrature",
    "u_fn",
    "v_fn",
    "w_fn",
    "energy_gaussian",
    "energy_gaussian_moving",
    "energy_gaussian_shifted",
    "x_kernel",
    "p_kernel",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized Gaussian wave packet with width sigma, mean momentum k0
    and mean position x0:  pi^{-1/4} sigma^{-1/2}
    exp(-(x-x0)^2 / 2 sigma^2 + i k0 x).

    sigma, k0 and x0 are stored as Python floats, so the scalar closed
    forms built on them run in float arithmetic."""

    sigma: float
    k0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        for name in ("sigma", "k0", "x0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.sigma) and math.isfinite(self.k0) and math.isfinite(self.x0)):
            raise DomainError("packet sigma, k0 and x0 must be finite")
        if self.sigma <= 0:
            raise DomainError("packet width sigma must be positive")

    @property
    def _norm(self):
        return math.pi ** (-0.25) / math.sqrt(self.sigma)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._norm * np.exp(
            -((x - self.x0) ** 2) / (2 * self.sigma**2) + 1j * self.k0 * x
        )

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return (-(x - self.x0) / self.sigma**2 + 1j * self.k0) * self(x)

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        g = -(x - self.x0) / self.sigma**2 + 1j * self.k0
        return (g * g - 1.0 / self.sigma**2) * self(x)


def gaussian_segment_integral(packet: GaussianPacket, lo, hi, phase: float = 0.0):
    """Closed form of int_lo^hi psi(x) e^{i phase x} dx; lo/hi may be
    +-inf.  Returns a Python complex.

    Evaluated through the scaled Faddeeva function: the naive
    prefactor-times-erf product overflows once |k0 + phase|*sigma is a few
    tens, while the honest combination (a boundary term of magnitude
    exp(-(t-x0)^2/2 sigma^2)) stays bounded for any phase.  Every
    exponent has a non-positive real part, so cmath.exp can only
    underflow, and that quietly gives 0; the unbounded squares are
    products, as in the profiles below.
    """
    import scipy.special

    s, x0 = packet.sigma, packet.x0
    kap = packet.k0 + float(phase)
    amp = packet._norm * s * math.sqrt(math.pi / 2)
    pref = amp * cmath.exp(1j * kap * x0 - kap * kap * s**2 / 2)

    def pref_times_end(t):
        if t == math.inf:
            return pref
        if t == -math.inf:
            return -pref
        w = (t - x0 - 1j * kap * s**2) / (_SQRT2 * s)
        # pref * exp(-w^2), combined analytically (bounded for all kap)
        e_t = amp * cmath.exp(1j * kap * t - (t - x0) * (t - x0) / (2 * s**2))
        # complex() keeps the arithmetic in Python complex, not numpy scalars
        if w.real >= 0:
            return pref - e_t * complex(scipy.special.wofz(1j * w))
        return e_t * complex(scipy.special.wofz(-1j * w)) - pref

    return pref_times_end(float(hi)) - pref_times_end(float(lo))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dimensionless energy expectation value split into its three parts."""

    kinetic: float
    local_potential: float
    nonlocal_part: float

    @property
    def total(self) -> float:
        return self.kinetic + self.local_potential + self.nonlocal_part


def _require_class(c: Couplings):
    if not c.im_antisymmetric:
        raise UnsupportedCouplingError(
            "equivalent Hermitian construction needs Im(z_+) = -Im(z_-)"
        )


def _prim(kind, arg, shift=0.0):
    return KernelPrimitive(kind, arg, shift)


def h_kernel(c: Couplings) -> DistributionalKernel:
    """Kernel of the equivalent Hermitian Hamiltonian:

        delta(x-y) (-d^2/dx^2 + Re z_+ delta(x-a) + Re z_- delta(x+a))
        + (Im z_+)^2/8 * four Dirac-times-window terms.

    Hermitian-symmetric term by term; the nonlocal window part depends on
    the couplings only through Im(z_+)^2.
    """
    _require_class(c)
    a = c.a
    lam2 = c.z_plus.imag ** 2
    w = lam2 / 8
    terms = [
        KernelTerm(complex(c.z_plus.real), (_prim("dirac", "x-y"), _prim("dirac", "x", -a))),
        KernelTerm(complex(c.z_minus.real), (_prim("dirac", "x-y"), _prim("dirac", "x", +a))),
    ]
    for dv, wv, sgn in (
        (("x", +a), ("y", +a), +1),
        (("x", +a), ("y", -3 * a), -1),
        (("x", -a), ("y", +3 * a), +1),
        (("x", -a), ("y", -a), -1),
        (("y", +a), ("x", +a), +1),
        (("y", +a), ("x", -3 * a), -1),
        (("y", -a), ("x", +3 * a), +1),
        (("y", -a), ("x", -a), -1),
    ):
        terms.append(
            KernelTerm(sgn * w, (_prim("dirac", *dv), _prim("heaviside", *wv)))
        )
    return DistributionalKernel(
        identity_coefficient=0.0,
        second_derivative_flag=True,
        terms=tuple(terms),
    )


@dataclass(frozen=True)
class ApplyHResult:
    """Action of the equivalent Hermitian Hamiltonian at a point: the
    regular value plus the coefficients of delta(x -+ a).

    The delta coefficients do not depend on x; each integrates its window
    on first read, so integrating ``regular`` over x integrates none.
    """

    regular: complex
    _plus: Callable[[], complex] = field(repr=False, compare=False)
    _minus: Callable[[], complex] = field(repr=False, compare=False)

    @cached_property
    def delta_plus(self) -> complex:
        return self._plus()

    @cached_property
    def delta_minus(self) -> complex:
        return self._minus()


def apply_h(c: Couplings, psi, x: float) -> ApplyHResult:
    """(h psi)(x) with the distributional pieces reported separately.

    psi must be array-callable (a float ndarray in, an ndarray of the same
    shape out), twice differentiable at x, and expose its second
    derivative as ``second_derivative`` (GaussianPacket does); anything
    else raises DomainError.  The two window integrals are
    energy_quadrature's, taken when a delta coefficient is first read.
    Outside |x| <= 3a the regular part is exactly -psi''(x).
    """
    _require_class(c)
    a = c.a
    lam2 = c.z_plus.imag ** 2
    psi_dd = getattr(psi, "second_derivative", None)
    if psi_dd is None:
        raise DomainError("psi must expose its second derivative as second_derivative")

    regular = -psi_dd(x) + (lam2 / 8) * (
        (theta(x + a) - theta(x - 3 * a)) * psi(-a)
        + (theta(x + 3 * a) - theta(x - a)) * psi(a)
    )
    return ApplyHResult(
        complex(regular),
        lambda: complex(
            c.z_plus.real * psi(a)
            + (lam2 / 8) * _panel_integral(psi, psi, -3 * a, a, DEFAULT_SPEC)
        ),
        lambda: complex(
            c.z_minus.real * psi(-a)
            + (lam2 / 8) * _panel_integral(psi, psi, -a, 3 * a, DEFAULT_SPEC)
        ),
    )


# a kernel without terms: _panel_width then sees the packet's scales only
_NO_TERMS = DistributionalKernel()


def _panel_integral(f, psi, lo, hi, spec):
    """int_lo^hi f by numerics.integrate_panels, from the coarsest panel
    width kernel_pair uses for psi: 4 min(sigma, 1/|k0|) for a packet."""
    h = _panel_width(_NO_TERMS, (psi,), lo, hi, spec)
    return integrate_panels(f, (lo, hi), h, spec)


def _windows(psi, a, spec):
    """int psi over (-a, 3a) and over (-3a, a), the windows of h's
    nonlocal part."""
    return _panel_integral(psi, psi, -a, 3 * a, spec), _panel_integral(psi, psi, -3 * a, a, spec)


def energy_quadrature(
    c: Couplings, packet: GaussianPacket, spec: QuadratureSpec = DEFAULT_SPEC
) -> EnergyBreakdown:
    """Energy expectation value by quadrature; the oracle for every closed
    form below.

        E = int |psi'|^2
          + Re z_+ |psi(a)|^2 + Re z_- |psi(-a)|^2
          + (Im z_+)^2/4 * Re[ psi*(-a) int_{-a}^{3a} psi
                               + psi*(a) int_{-3a}^{a} psi ]

    The kinetic integral runs over x0 +- 14 sigma, the windows over
    (-a, 3a) and (-3a, a), each by numerics.integrate_panels with the
    coarsest panel width kernel_pair uses for a packet: four times the
    shorter of sigma and 1/|k0|.  It samples psi and psi' in x-space
    only, so it shares nothing with the erf/Faddeeva closed forms it
    checks.
    """
    _require_class(c)
    a = c.a
    kinetic = _panel_integral(
        lambda x: np.abs(packet.derivative(x)) ** 2, packet, *_packet_box(packet), spec
    ).real
    local = (
        c.z_plus.real * abs(packet(a)) ** 2 + c.z_minus.real * abs(packet(-a)) ** 2
    )
    int_m, int_p = _windows(packet, a, spec)
    lam2 = c.z_plus.imag ** 2
    nonloc = (lam2 / 4) * (
        np.conj(packet(-a)) * int_m + np.conj(packet(a)) * int_p
    ).real
    return EnergyBreakdown(kinetic, local, nonloc)


def _require_profile_args(a, sigma, t, t_name):
    """The three profile arguments as Python floats, checked.

    The profiles square k and x0 by multiplication: a float ``**`` raises
    OverflowError past 1.3e154, where a product goes to inf and its
    Gaussian factor to 0."""
    a, sigma, t = float(a), float(sigma), float(t)
    if not (math.isfinite(a) and math.isfinite(sigma) and math.isfinite(t)):
        raise DomainError(f"a, sigma and {t_name} must be finite")
    if a <= 0:
        raise DomainError("half-separation a must be positive")
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    return a, sigma, t


def u_fn(a: float, sigma: float, k: float) -> float:
    """Nonlocal-energy profile for a moving packet centred at the origin:

        U = exp(-(a^2 + k^2 sigma^4)/(2 sigma^2))
            * Re{ e^{-ika} [erf((ik sigma^2 + 3a)/(sqrt2 sigma))
                            - erf((ik sigma^2 - a)/(sqrt2 sigma))] }

    Real by construction and even in k.  Evaluated through the scaled
    Faddeeva function so the prefactor-times-erf products stay finite at
    large k*sigma, where the naive bracket overflows (the true decay is
    algebraic, set by the finite integration windows, not Gaussian).
    """
    a, sigma, k = _require_profile_args(a, sigma, k, "k")
    import scipy.special

    a2, s2 = a**2, sigma**2
    w1 = (1j * k * s2 + 3 * a) / (_SQRT2 * sigma)  # Re > 0
    w2 = (1j * k * s2 - a) / (_SQRT2 * sigma)      # Re < 0
    pref = math.exp(-(a2 + k * k * sigma**4) / (2 * s2))
    # pref * exp(-w^2) in closed form, free of intermediate overflow
    e1 = cmath.exp(-5 * a2 / s2 - 3j * a * k)
    e2 = cmath.exp(-a2 / s2 + 1j * a * k)
    # pref*erf(w1) = pref - e1 wofz(i w1);  pref*erf(w2) = e2 wofz(-i w2) - pref;
    # complex() keeps the arithmetic in Python complex, not numpy scalars
    val = (
        2 * pref
        - e1 * complex(scipy.special.wofz(1j * w1))
        - e2 * complex(scipy.special.wofz(-1j * w2))
    )
    return (cmath.exp(-1j * k * a) * val).real


def v_fn(a: float, sigma: float, x0: float) -> float:
    """Local-potential profile of a stationary shifted packet (the
    antisymmetric combination of the two delta weights)."""
    a, sigma, x0 = _require_profile_args(a, sigma, x0, "x0")

    def gauss(u):
        return math.exp(-(u * u) / sigma**2)

    return gauss(x0 - a) - gauss(x0 + a)


def w_fn(a: float, sigma: float, x0: float) -> float:
    """Nonlocal-energy profile for a stationary packet at mean position x0:

        W = e^{-(a+x0)^2/2 sigma^2} [erf((a+x0)/sqrt2 sigma) + erf((3a-x0)/sqrt2 sigma)]
          + e^{-(a-x0)^2/2 sigma^2} [erf((a-x0)/sqrt2 sigma) + erf((3a+x0)/sqrt2 sigma)]

    Every exponent is nonpositive, so nothing overflows at large
    |x0|/sigma, and x0 -> -x0 swaps the two terms: W is even in x0
    exactly, not just to rounding.
    """
    a, sigma, x0 = _require_profile_args(a, sigma, x0, "x0")
    s = _SQRT2 * sigma

    def part(u, v):
        return math.exp(-(u / s) * (u / s)) * (math.erf(u / s) + math.erf(v / s))

    return part(a + x0, 3 * a - x0) + part(a - x0, 3 * a + x0)


def energy_gaussian(c: Couplings, packet: GaussianPacket) -> EnergyBreakdown:
    """Closed-form energy for a general Gaussian packet (erf route).

    Fast path equivalent to energy_quadrature; the quadrature remains the
    contract and arbitrates any transcription question.
    """
    _require_class(c)
    a = c.a
    kinetic = packet.k0**2 + 1.0 / (2 * packet.sigma**2)
    local = (
        c.z_plus.real * abs(packet(a)) ** 2 + c.z_minus.real * abs(packet(-a)) ** 2
    )
    int_m = gaussian_segment_integral(packet, -a, 3 * a)
    int_p = gaussian_segment_integral(packet, -3 * a, a)
    lam2 = c.z_plus.imag ** 2
    nonloc = (lam2 / 4) * (
        np.conj(packet(-a)) * int_m + np.conj(packet(a)) * int_p
    ).real
    return EnergyBreakdown(float(kinetic), float(local), float(nonloc))


def energy_gaussian_moving(c: Couplings, sigma: float, k: float) -> EnergyBreakdown:
    """Closed form for the origin-centred moving packet:

        kinetic  = k^2 + 1/(2 sigma^2)
        nonlocal = (Im z_+)^2 U(a, sigma, k) / (2 sqrt 2)

    Must agree with energy_quadrature to 1e-6 relative.
    """
    _require_class(c)
    packet = GaussianPacket(sigma, k0=k, x0=0.0)
    kinetic = k**2 + 1.0 / (2 * sigma**2)
    local = (
        c.z_plus.real * abs(packet(c.a)) ** 2
        + c.z_minus.real * abs(packet(-c.a)) ** 2
    )
    nonloc = c.z_plus.imag ** 2 * u_fn(c.a, sigma, k) / (2 * _SQRT2)
    return EnergyBreakdown(float(kinetic), float(local), float(nonloc))


def energy_gaussian_shifted(c: Couplings, sigma: float, x0: float) -> EnergyBreakdown:
    """Closed form for the stationary packet at mean position x0:

        kinetic  = 1/(2 sigma^2)
        nonlocal = (Im z_+)^2 W(a, sigma, x0) / (4 sqrt 2)
    """
    _require_class(c)
    packet = GaussianPacket(sigma, k0=0.0, x0=x0)
    kinetic = 1.0 / (2 * sigma**2)
    local = (
        c.z_plus.real * abs(packet(c.a)) ** 2
        + c.z_minus.real * abs(packet(-c.a)) ** 2
    )
    nonloc = c.z_plus.imag ** 2 * w_fn(c.a, sigma, x0) / (4 * _SQRT2)
    return EnergyBreakdown(float(kinetic), float(local), float(nonloc))


def x_kernel(c: Couplings) -> DistributionalKernel:
    """Pseudo-Hermitian position kernel to first order:

        X(x,y) = x delta(x-y)
               + (i Im z_+ / 4) |x-y| [theta(x+y+2a) - theta(x+y-2a)].
    """
    _require_class(c)
    a = c.a
    coeff = 0.25j * c.z_plus.imag
    ab = _prim("abs", "x-y")
    return DistributionalKernel(
        terms=(
            KernelTerm(1.0, (_prim("linear", "x"), _prim("dirac", "x-y"))),
            KernelTerm(coeff, (ab, _prim("heaviside", "x+y", +2 * a))),
            KernelTerm(-coeff, (ab, _prim("heaviside", "x+y", -2 * a))),
        )
    )


def p_kernel(c: Couplings) -> DistributionalKernel:
    """Pseudo-Hermitian momentum kernel to first order:

        P(x,y) = -i delta'(x-y)
               + (Im z_+ / 2) sign(x-y) [delta(x+y+2a) - delta(x+y-2a)].

    The first-order part is anti-Hermitian, as required by P = rho^-1 p
    rho with positive rho; with it [X, P] = i + O(z^2) holds, which pins
    the form.
    """
    _require_class(c)
    a = c.a
    coeff = 0.5 * c.z_plus.imag
    s = _prim("sign", "x-y")
    return DistributionalKernel(
        momentum_flag=True,
        terms=(
            KernelTerm(coeff, (s, _prim("dirac", "x+y", +2 * a))),
            KernelTerm(-coeff, (s, _prim("dirac", "x+y", -2 * a))),
        ),
    )
