"""Equivalent Hermitian Hamiltonian and pseudo-Hermitian observables.

The nonlocal Hermitian kernel equivalent to the non-Hermitian double-delta
Hamiltonian (valid on the class Im(z_+) = -Im(z_-)), its action on wave
functions (apply_h: the regular part; h_delta_coefficients: the delta
parts), Gaussian-packet energy expectation values (quadrature oracle
plus one erf closed form, with the U, V and W profiles as its parts),
and the first-order pseudo-Hermitian position and momentum kernels.
GaussianPacket, defined in kernels and re-exported here, owns the box
and the coarsest panel width that kernel_pair and energy_quadrature
integrate it with.

All energies are dimensionless (2 m l^2 E_phys / hbar^2); conversion to
physical units happens at the CLI boundary via PhysicalContext.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedCouplingError
from .kernels import (
    DistributionalKernel,
    GaussianPacket,
    KernelPrimitive,
    KernelTerm,
    _require_packets,
)
from .model import Couplings, theta
from .numerics import integrate_panels

__all__ = [
    "GaussianPacket",
    "EnergyBreakdown",
    "gaussian_segment_integral",
    "h_kernel",
    "apply_h",
    "h_delta_coefficients",
    "energy_quadrature",
    "u_fn",
    "v_fn",
    "w_fn",
    "energy_gaussian",
    "x_kernel",
    "p_kernel",
]

_SQRT2 = math.sqrt(2.0)


def gaussian_segment_integral(packet: GaussianPacket, lo, hi, phase: float = 0.0):
    """Closed form of int_lo^hi psi(x) e^{i phase x} dx; lo/hi may be
    +-inf.  Returns a Python complex.

    Evaluated through the scaled Faddeeva function: the naive
    prefactor-times-erf product overflows once |k0 + phase|*sigma is a few
    tens, while the honest combination (a boundary term of magnitude
    exp(-(t-x0)^2/2 sigma^2)) stays bounded for any phase.  Every
    exponent has a non-positive real part, so cmath.exp can only
    underflow, and that quietly gives 0; the unbounded squares are
    products, as in the profiles below.  When both ends lie on one side
    of x0 (an infinite end on its own side), the integral is the
    difference of the two end terms without their limits +-pref, which
    would cancel and take a far tail's digits with them.  DomainError
    unless packet is a GaussianPacket, lo and hi are not nan and phase is
    finite.
    """
    import scipy.special

    _require_packets(packet)
    lo, hi, phase = float(lo), float(hi), float(phase)
    if math.isnan(lo) or math.isnan(hi) or not math.isfinite(phase):
        raise DomainError("segment ends must not be nan and the phase must be finite")
    s, x0 = packet.sigma, packet.x0
    kap = packet.k0 + phase
    amp = packet._norm * s * math.sqrt(math.pi / 2)
    pref = amp * cmath.exp(1j * kap * x0 - kap * kap * s**2 / 2)

    def tail(t):
        # the end term less its limit +-pref on t's side of x0: 0 at +-inf
        if math.isinf(t):
            return 0j
        w = (t - x0 - 1j * kap * s**2) / (_SQRT2 * s)
        # pref * exp(-w^2), combined analytically (bounded for all kap)
        e_t = amp * cmath.exp(1j * kap * t - (t - x0) * (t - x0) / (2 * s**2))
        # complex() keeps the arithmetic in Python complex, not numpy scalars
        if t >= x0:
            return -(e_t * complex(scipy.special.wofz(1j * w)))
        return e_t * complex(scipy.special.wofz(-1j * w))

    def pref_times_end(t):
        if math.isinf(t):
            return pref if t > 0 else -pref
        return pref + tail(t) if t >= x0 else tail(t) - pref

    if (lo >= x0) == (hi >= x0):
        # both ends on one side of x0: the limits cancel exactly, so the
        # tails keep the digits their difference would lose
        return tail(hi) - tail(lo)
    return pref_times_end(hi) - pref_times_end(lo)


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
    """The one guard of the bounded class: UnsupportedCouplingError unless
    c.im_antisymmetric.  The equivalent Hermitian kernels and energies
    here, metric.eta1_bounded and the energy command all call it."""
    if not c.im_antisymmetric:
        raise UnsupportedCouplingError(
            "the bounded metric and the equivalent Hermitian construction need "
            f"Im(z_+) = -Im(z_-); got Im(z_+) = {c.z_plus.imag}, Im(z_-) = {c.z_minus.imag}"
        )


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
    diagonal = KernelPrimitive("dirac", "x-y")
    terms = [
        KernelTerm(complex(c.z_plus.real), (diagonal, KernelPrimitive("dirac", "x", -a))),
        KernelTerm(complex(c.z_minus.real), (diagonal, KernelPrimitive("dirac", "x", +a))),
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
            KernelTerm(sgn * w, (KernelPrimitive("dirac", *dv), KernelPrimitive("heaviside", *wv)))
        )
    return DistributionalKernel(
        identity_coefficient=0.0,
        second_derivative_flag=True,
        terms=tuple(terms),
    )


def apply_h(c: Couplings, psi, x: float) -> complex:
    """Regular part of (h psi)(x); h_delta_coefficients gives the
    coefficients of its delta(x -+ a) parts.

    psi must be array-callable (a float ndarray in, an ndarray of the same
    shape out), twice differentiable at x, and expose its second
    derivative as ``second_derivative`` (GaussianPacket does); anything
    else raises DomainError.  Outside |x| <= 3a the value is exactly
    -psi''(x).
    """
    _require_class(c)
    a = c.a
    lam2 = c.z_plus.imag ** 2
    psi_dd = getattr(psi, "second_derivative", None)
    if psi_dd is None:
        raise DomainError("psi must expose its second derivative as second_derivative")
    return complex(
        -psi_dd(x) + (lam2 / 8) * (
            (theta(x + a) - theta(x - 3 * a)) * psi(-a)
            + (theta(x + 3 * a) - theta(x - a)) * psi(a)
        )
    )


def h_delta_coefficients(c: Couplings, psi: GaussianPacket):
    """Coefficients of delta(x - a) and delta(x + a) in h psi.

    They do not depend on x.  Each integrates a window of h's nonlocal
    part, (-3a, a) and (-a, 3a), with energy_quadrature's panel rule, so
    psi must be a GaussianPacket (DomainError otherwise).
    """
    _require_packets(psi)
    _require_class(c)
    a = c.a
    lam2 = c.z_plus.imag ** 2
    int_m, int_p = _windows(psi, a)
    return (
        complex(c.z_plus.real * psi(a) + (lam2 / 8) * int_p),
        complex(c.z_minus.real * psi(-a) + (lam2 / 8) * int_m),
    )


def _windows(psi, a):
    """int psi over (-a, 3a) and over (-3a, a), the windows of h's
    nonlocal part, from the coarsest panel width kernel_pair uses for
    the packet psi."""
    return (
        integrate_panels(psi, (-a, 3 * a), psi.panel_width),
        integrate_panels(psi, (-3 * a, a), psi.panel_width),
    )


def _kinetic(psi):
    """int |psi'|^2 over psi.box.  The integrand, |psi|^2 ((x - x0)^2/sigma^4
    + k0^2), has width sigma/sqrt2 and no phase, so its panels start
    4 sigma/sqrt2 wide whatever k0 is."""
    return integrate_panels(
        lambda x: np.abs(psi.derivative(x)) ** 2, psi.box, 4.0 * psi.sigma / _SQRT2
    ).real


def energy_quadrature(c: Couplings, packet: GaussianPacket) -> EnergyBreakdown:
    """Energy expectation value by quadrature; the oracle for the closed
    form energy_gaussian.

        E = int |psi'|^2
          + Re z_+ |psi(a)|^2 + Re z_- |psi(-a)|^2
          + (Im z_+)^2/4 * Re[ psi*(-a) int_{-a}^{3a} psi
                               + psi*(a) int_{-3a}^{a} psi ]

    Each part runs by numerics.integrate_panels.  The kinetic integral
    runs over packet.box from panels 4 sigma/sqrt2 wide, the scale of
    |psi'|^2.  The windows (-a, 3a) and (-3a, a) start from the coarsest
    panel width kernel_pair uses for a packet: four times the shorter of
    sigma and 1/|k0|.  It samples psi and psi' in x-space only, so it
    shares nothing with the erf/Faddeeva closed form it checks.
    packet must be a GaussianPacket (DomainError otherwise).
    """
    _require_packets(packet)
    _require_class(c)
    a = c.a
    kinetic = _kinetic(packet)
    at_p, at_m = packet(a), packet(-a)
    local = c.z_plus.real * abs(at_p) ** 2 + c.z_minus.real * abs(at_m) ** 2
    int_m, int_p = _windows(packet, a)
    lam2 = c.z_plus.imag ** 2
    nonloc = (lam2 / 4) * (np.conj(at_m) * int_m + np.conj(at_p) * int_p).real
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
    exactly, not just to rounding, and is summed at |x0|.  A bracket with
    a negative argument is the difference erfc(|neg|) - erfc(pos), which
    keeps the digits the erf sum cancels, so W is accurate in its tail too.
    """
    a, sigma, x0 = _require_profile_args(a, sigma, x0, "x0")
    s = _SQRT2 * sigma
    x0 = abs(x0)
    p, q = (a + x0) / s, (3 * a - x0) / s
    m, r = (a - x0) / s, (3 * a + x0) / s
    near = math.erf(p) + math.erf(q) if q >= 0 else math.erfc(-q) - math.erfc(p)
    far = math.erf(m) + math.erf(r) if m >= 0 else math.erfc(-m) - math.erfc(r)
    return math.exp(-p * p) * near + math.exp(-m * m) * far


def energy_gaussian(c: Couplings, packet: GaussianPacket) -> EnergyBreakdown:
    """Closed-form energy for a Gaussian packet (erf route).

    Fast path equivalent to energy_quadrature; the quadrature remains the
    contract and arbitrates any transcription question.  With lambda =
    Im z_+ and r = Re z_+ = -Re z_-, its nonlocal parts at (sigma, k, 0)
    and (sigma, 0, x0) are lambda^2 U/(2 sqrt2) and lambda^2 W/(4 sqrt2),
    and its local part at (sigma, 0, x0) is r V/(sigma sqrt pi)
    (hermitianize.u_w_profiles).  DomainError unless packet is a
    GaussianPacket.
    """
    _require_packets(packet)
    _require_class(c)
    a = c.a
    kinetic = packet.k0**2 + 1.0 / (2 * packet.sigma**2)
    at_p, at_m = packet(a), packet(-a)
    local = c.z_plus.real * abs(at_p) ** 2 + c.z_minus.real * abs(at_m) ** 2
    int_m = gaussian_segment_integral(packet, -a, 3 * a)
    int_p = gaussian_segment_integral(packet, -3 * a, a)
    lam2 = c.z_plus.imag ** 2
    nonloc = (lam2 / 4) * (np.conj(at_m) * int_m + np.conj(at_p) * int_p).real
    return EnergyBreakdown(float(kinetic), float(local), float(nonloc))


def x_kernel(c: Couplings) -> DistributionalKernel:
    """Pseudo-Hermitian position kernel to first order:

        X(x,y) = x delta(x-y)
               + (i Im z_+ / 4) |x-y| [theta(x+y+2a) - theta(x+y-2a)].
    """
    _require_class(c)
    a = c.a
    coeff = 0.25j * c.z_plus.imag
    ab = KernelPrimitive("abs", "x-y")
    return DistributionalKernel(
        terms=(
            KernelTerm(1.0, (KernelPrimitive("linear", "x"), KernelPrimitive("dirac", "x-y"))),
            KernelTerm(coeff, (ab, KernelPrimitive("heaviside", "x+y", +2 * a))),
            KernelTerm(-coeff, (ab, KernelPrimitive("heaviside", "x+y", -2 * a))),
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
    s = KernelPrimitive("sign", "x-y")
    return DistributionalKernel(
        momentum_flag=True,
        terms=(
            KernelTerm(coeff, (s, KernelPrimitive("dirac", "x+y", +2 * a))),
            KernelTerm(-coeff, (s, KernelPrimitive("dirac", "x+y", -2 * a))),
        ),
    )
