"""Metric-operator constructions for the double-delta model.

Four routes to a metric live here:

* the bounded first-order kernel eta1_bounded, valid on the coupling class
  Im(z_+) = -Im(z_-), which tends to the identity in the Hermitian limit;
* the alternative first-order kernel eta1_appendixA built from the
  ratio-of-imaginary-to-real perturbation parameters, which stays bounded
  but does not tend to the identity;
* the exact 2x2 route U = K^{-1/2} at fixed wave number;
* the regulated spectral-representation estimate, used as a numerical
  oracle for the closed-form kernels.

The I_{n,m} integral family (rational-times-plane-wave Fourier integrals)
underlying the alternative kernel is exposed with both closed forms and a
quadrature cross-check, and the alternative kernel's packet pairings with
their k-space oracle, the weighted spectral integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedCouplingError
from .kernels import (
    DistributionalKernel,
    KernelPrimitive,
    KernelTerm,
    _pair,
    _require_packets,
    hermitian_completion,
)
from .hermitianize import _require_class, gaussian_segment_integral
from .model import Couplings, _psi_raw, k_matrix
from .numerics import QuadratureSpec, _quad, integrate_1d, matrix_inv_sqrt

__all__ = [
    "AppendixAParams",
    "eta1_bounded",
    "eta1_appendixA",
    "appendixA_weighted_overlap",
    "inm",
    "inm_quadrature",
    "u_inverse_sqrt_route",
    "spectral_metric_estimate",
    "metric_de_residual",
]


# tolerances of the k-space oracles below
_SPECTRAL_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=800)


def eta1_bounded(c: Couplings) -> DistributionalKernel:
    """First-order bounded metric kernel, as identity + 2 terms:

        eta(x,y) = delta(x-y)
                 + (i Im(z_+)/2) sign(x-y) [theta(x+y+2a) - theta(x+y-2a)].

    Only the class Im(z_+) = -Im(z_-) admits this kernel; anything else
    raises UnsupportedCouplingError (no bounded first-order metric is
    constructed outside that class).  The regular part is purely
    imaginary, antisymmetric under x <-> y, and bounded by |Im z_+|/2.
    """
    _require_class(c)
    lam = c.z_plus.imag
    coeff = 0.5j * lam
    s = KernelPrimitive("sign", "x-y")
    return DistributionalKernel(
        identity_coefficient=1.0,
        terms=(
            KernelTerm(coeff, (s, KernelPrimitive("heaviside", "x+y", +2 * c.a))),
            KernelTerm(-coeff, (s, KernelPrimitive("heaviside", "x+y", -2 * c.a))),
        ),
    )


@dataclass(frozen=True)
class AppendixAParams:
    """Couplings z_pm = r_pm (1 + i eps_pm) with r_pm > 0, plus the free
    positive weight parameter gamma of the rational weight function."""

    r_plus: float
    r_minus: float
    eps_plus: float
    eps_minus: float
    gamma: float
    a: float = 1.0

    def __post_init__(self):
        fields = [self.r_plus, self.r_minus, self.eps_plus, self.eps_minus, self.gamma, self.a]
        if not np.all(np.isfinite(fields)):
            raise DomainError("appendix-A parameters must be finite")
        if self.r_plus <= 0 or self.r_minus <= 0:
            raise DomainError("r_pm must be positive")
        if self.gamma <= 0 or self.a <= 0:
            raise DomainError("gamma and a must be positive")

    @property
    def rho_a(self) -> float:
        # decay length of the weight; named rho_a to avoid clashing with
        # the square root of the metric
        return self.gamma / np.sqrt(self.r_plus * self.r_minus)

    @property
    def eps1(self) -> float:
        return self.eps_plus + self.eps_minus

    @property
    def eps2(self) -> float:
        return self.eps_plus * self.eps_minus

    @property
    def z_plus(self) -> complex:
        return self.r_plus * (1 + 1j * self.eps_plus)

    @property
    def z_minus(self) -> complex:
        return self.r_minus * (1 + 1j * self.eps_minus)


def eta1_appendixA(p: AppendixAParams) -> DistributionalKernel:
    """Alternative first-order metric kernel (weight-function route).

    One-sided term list T(x,y) completed Hermitianly to T + (x<->y)*.
    Exact in the coupling magnitudes r_pm and gamma, truncated at first
    order in eps_pm.  Its Hermitian limit (eps_pm = 0) is NOT the
    identity: a -exp(-|x-y|/rho)/(4 rho) tail survives.
    """
    rho, a = p.rho_a, p.a
    rate = 1.0 / rho
    zp, zm = p.z_plus, p.z_minus
    # z_+ z_-^* truncated at first order in eps
    cross = p.r_plus * p.r_minus * (1 + 1j * (p.eps_plus - p.eps_minus))

    # Build terms by brute expansion: every theta(-u) is written as the
    # pair (const - heaviside(u)) inline, keeping factors primitive.
    terms = []

    def add(coeff, exp_arg, exp_shift, *factor_specs):
        """factor_specs: ('th+', arg, shift) for theta(arg+shift),
        ('th-', arg, shift) for theta(-(arg+shift)), ('s', arg, shift)
        for sign(arg+shift).  Expands theta(-u) = const - theta(u)."""
        expansions = [([], complex(coeff))]
        for spec in factor_specs:
            kind, arg, shift = spec
            new = []
            for factors, cf in expansions:
                if kind == "th+":
                    new.append((factors + [KernelPrimitive("heaviside", arg, shift)], cf))
                elif kind == "s":
                    new.append((factors + [KernelPrimitive("sign", arg, shift)], cf))
                elif kind == "th-":
                    # theta(-(u)) = 1 - theta(u) pointwise except at u = 0
                    # where both conventions give 1/2, so the expansion is
                    # exact under sign(0) = 0
                    new.append((factors, cf))
                    new.append((factors + [KernelPrimitive("heaviside", arg, shift)], -cf))
                else:
                    raise DomainError(kind)
            expansions = new
        e = KernelPrimitive("exp_abs", exp_arg, exp_shift, rate)
        for factors, cf in expansions:
            if cf != 0:
                terms.append(KernelTerm(cf, tuple([e] + factors)))

    rp2 = p.r_plus**2
    rm2 = p.r_minus**2

    # exp(-|x-y|/rho) group
    add(-1.0 / (4 * rho), "x-y", 0.0)
    add(rho / 8 * rp2, "x-y", 0.0, ("th+", "x", -a), ("th+", "y", -a))
    add(rho / 8 * rm2, "x-y", 0.0, ("th-", "x", +a), ("th-", "y", +a))
    add(-rho / 8 * cross, "x-y", 0.0, ("th-", "x", +a), ("th+", "y", -a))
    add(-zp / 4, "x-y", 0.0, ("th+", "y", -a), ("s", "x-y", 0.0))
    add(+zm / 4, "x-y", 0.0, ("th-", "y", +a), ("s", "x-y", 0.0))
    # exp(-|x-+y-|/rho) group
    add(-rho / 8 * rp2, "x+y", -2 * a, ("th+", "x", -a), ("th+", "y", -a))
    add(rho / 8 * cross, "x+y", -2 * a, ("th-", "x", +a), ("th+", "y", -a))
    add(zp / 4, "x+y", -2 * a, ("th+", "y", -a), ("s", "x+y", -2 * a))
    # exp(-|x++y+|/rho) group
    add(-rho / 8 * rm2, "x+y", +2 * a, ("th-", "x", +a), ("th-", "y", +a))
    add(rho / 8 * cross, "x+y", +2 * a, ("th-", "x", +a), ("th+", "y", -a))
    add(-zm / 4, "x+y", +2 * a, ("th-", "y", +a), ("s", "x+y", +2 * a))
    # exp(-|x-y+4a|/rho) group
    add(-rho / 8 * cross, "x-y", +4 * a, ("th-", "x", +a), ("th+", "y", -a))

    half = DistributionalKernel(identity_coefficient=0.5, terms=tuple(terms))
    return hermitian_completion(half)


def appendixA_weighted_overlap(p: AppendixAParams, g) -> complex:
    """<g| eta |g> from the weighted spectral representation: the k-space
    oracle for pairings of eta1_appendixA with a GaussianPacket g.

    Integrates the rational weight times |<g | psi^{z*}_k>|^2 over the
    signed wave-number line, the overlaps from the packet's erf segment
    integrals.  It shares no code with the x-space kernel and stays on
    QUADPACK (numerics.integrate_1d), a different rule from the panels
    kernel_pair uses.
    """
    rho = p.rho_a
    e1, e2 = p.eps1, p.eps2
    a = p.a
    zp, zm = np.conj(p.z_plus), np.conj(p.z_minus)

    def W(k):
        kap2 = (rho * k) ** 2
        return kap2 / (1 + kap2) * (1 + e2 / (1 + kap2) - e1**2 / (2 * (1 + kap2) ** 2))

    def overlap(k):
        free = gaussian_segment_integral(g, -np.inf, np.inf, phase=k)
        left = -(1j * zm / (2 * k)) * (
            np.exp(-2j * k * a) * gaussian_segment_integral(g, -np.inf, -a, phase=-k)
            - gaussian_segment_integral(g, -np.inf, -a, phase=k)
        )
        right = -(1j * zp / (2 * k)) * (
            gaussian_segment_integral(g, a, np.inf, phase=k)
            - np.exp(2j * k * a) * gaussian_segment_integral(g, a, np.inf, phase=-k)
        )
        return np.conj(free + left + right) / np.sqrt(2 * np.pi)

    def f(k):
        return W(k) * abs(overlap(k)) ** 2

    # the coupling terms leave algebraic 1/k^4 tails (finite integration
    # windows), so integrate the whole half line
    return integrate_1d(lambda k: f(k) + f(-k), 1e-9, np.inf, _SPECTRAL_SPEC)


def _require_inm_index(n, m):
    """DomainError unless (n, m) indexes the I_{n,m} family."""
    if n not in (0, 1, 2) or m not in (1, 2, 3):
        raise DomainError("inm defined for n in 0..2, m in 1..3")


def inm(n: int, m: int, alpha: float):
    """Closed form of I_{n,m}(alpha) = (1/2pi) int k^{2-n} e^{ik alpha}
    (1+k^2)^{-m} dk as (delta_coefficient, regular_part).

    Only (n, m) = (0, 1) carries a Dirac delta(alpha) part.
    """
    _require_inm_index(n, m)
    aa = abs(alpha)
    e = np.exp(-aa)
    if m == 1:
        vals = (-e / 2, 0.5j * e * np.sign(alpha), e / 2)
        delta = 1.0 if n == 0 else 0.0
        return (delta, vals[n])
    if m == 2:
        vals = (e / 4 * (1 - aa), e / 4 * 1j * alpha, e / 4 * (1 + aa))
        return (0.0, vals[n])
    vals = (
        e / 16 * (1 + aa - alpha**2),
        e / 16 * 1j * alpha * (1 + aa),
        e / 16 * (3 * (1 + aa) + alpha**2),
    )
    return (0.0, vals[n])


def inm_quadrature(n: int, m: int, alpha: float):
    """Regular part of I_{n,m} by quadrature, independent of the closed
    forms.  Even n: cosine transform; odd n: sine transform; the (0,1)
    delta part is removed analytically before integrating.  QAWF's cos/sin
    weight is not an integrate_1d option: the estimate of numerics._quad
    is kept (bounds <= 2.7e-13 on verify's INM_POINTS)."""
    _require_inm_index(n, m)

    if (n, m) == (0, 1):
        # k^2/(1+k^2) = 1 - 1/(1+k^2); the 1 is the delta, integrate the rest
        def base(k):
            return -1.0 / (1 + k * k)
    else:
        def base(k):
            return k ** (2 - n) / (1 + k * k) ** m

    if alpha == 0.0:
        if n % 2 == 1:
            return 0.0
        val, _ = _quad(base, 0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-13)
        return val / np.pi

    if n % 2 == 0:
        val, _ = _quad(base, 0, np.inf, weight="cos", wvar=alpha, limit=400, epsabs=1e-13)
        return val / np.pi
    val, _ = _quad(base, 0, np.inf, weight="sin", wvar=alpha, limit=400, epsabs=1e-13)
    return 1j * val / np.pi


# largest ||U(z*)^dag K(z) U(z) - I|| u_inverse_sqrt_route accepts
_U_ROUTE_TOL = 1e-10


def u_inverse_sqrt_route(c: Couplings, k: float):
    """U = K^{-1/2}: the simplest closed solution of the biorthonormal
    normalization condition at wave number k.

    Verifies U(z*)^dag K(z) U(z) = I to 1e-10 before returning
    (DomainError otherwise); a branch failure here is the documented
    reason the exact route is abandoned in favour of perturbation theory.
    """
    K = k_matrix(c, k)
    U = matrix_inv_sqrt(K)
    U_conj = matrix_inv_sqrt(k_matrix(c.conjugate(), k))
    resid = np.linalg.norm(U_conj.conj().T @ K @ U - np.eye(2))
    if resid > _U_ROUTE_TOL:
        raise DomainError(f"normalization residual {resid:.2e} exceeds {_U_ROUTE_TOL:.1e}")
    return U


def _first_order_weight(x, k, a):
    """Coefficient of z^* in the first-order biorthonormal eigenfunction
    family (times sqrt(2 pi) e^{-ikx} stripped): the conjugated
    eigenfunction's reflected pieces at z_pm^* = +-1 plus the mixing
    matrix's two terms.
    """
    e = np.exp(1j * k * x)
    reflected = np.sqrt(2 * np.pi) * _psi_raw(1.0, -1.0, k, a, x) - e
    mixing = (1j / (2 * k)) * e - (1j * np.cos(2 * a * k) / (2 * k)) * np.exp(-1j * k * x)
    return reflected + mixing


# Gaussian regulator exp(-eps k^2) on the ladder eps in {4, 2, 1} * 0.01,
# each k-integral cut at 9/sqrt(eps); the regulator is removed by
# second-order Richardson extrapolation
_REGULATOR = 0.01


def spectral_metric_estimate(c: Couplings, x: float, y: float):
    """Regulated spectral estimate of the metric kernel's regular part.

    Integrates the first-order biorthonormal family, linearized in z,
    over both degeneracy branches (one integral over the signed
    wave-number line) with the Gaussian regulator ladder eps in
    {0.04, 0.02, 0.01} and Richardson extrapolation; the result
    converges to the regular part of eta1_bounded.

    Only defined on the construction class z_+ = -z_-.  (x, y) must stay
    at least 0.05 away from the kernel's discontinuity lines.
    """
    scale = max(1.0, abs(c.z_plus), abs(c.z_minus))
    if abs(c.z_plus + c.z_minus) > 1e-12 * scale:
        raise UnsupportedCouplingError(
            "spectral estimate uses the z_+ = -z_- eigenfunction family"
        )
    a = c.a
    for u in (x - y, x + y + 2 * a, x + y - 2 * a):
        if abs(u) < 0.05:
            raise DomainError("(x, y) closer than 0.05 to a kernel discontinuity line")
    z = c.z_plus
    zc = np.conj(z)

    def f(k):
        return (
            zc * _first_order_weight(x, k, a) * np.exp(-1j * k * y)
            + z * np.conj(_first_order_weight(y, k, a)) * np.exp(1j * k * x)
        ) / (2 * np.pi)

    def regulated(eps):
        integrand = lambda k: (f(k) + f(-k)) * np.exp(-eps * k * k)
        return integrate_1d(integrand, 1e-9, 9.0 / np.sqrt(eps), _SPECTRAL_SPEC)

    i4, i2, i1 = (regulated(m * _REGULATOR) for m in (4, 2, 1))
    return (8.0 * i1 - 6.0 * i2 + i4) / 3.0


def metric_de_residual(kern: DistributionalKernel, c: Couplings, test_bra, test_ket):
    """Weak-form residual of the metric differential equation

        (-d^2/dx^2 + d^2/dy^2 + v*(x) - v(y)) eta(x, y) = 0

    against a smooth bra/ket pair, with derivatives moved onto the test
    functions: two pairings (kinetic and potential) by kernel_pair's
    rule, each on the packets' square and panel widths, to the numerics
    panel tolerance; signs and steps are evaluated once per cell or line
    segment, and the pieces on which the terms cancel (for eta1_bounded,
    all but the strip |x + y| < 2a) are skipped.  For
    eta1_bounded the residual is O(z^2): first order cancels identically
    between the kinetic commutator and the potential difference on the
    diagonal.

    test_bra and test_ket are GaussianPackets (DomainError otherwise):
    their boxes, second derivatives and panel widths are used.
    """
    _require_packets(test_bra, test_ket)
    a = c.a
    zp, zm = c.z_plus, c.z_minus

    total = 0.0 + 0.0j

    # identity part: kinetic contributions cancel by symmetry, the
    # potential difference leaves -2i Im v on the diagonal
    ic = kern.identity_coefficient
    if ic != 0:
        for z, pos in ((zp, a), (zm, -a)):
            total += ic * (np.conj(z) - z) * np.conj(test_bra(pos)) * test_ket(pos)

    reg_terms = tuple(t for t in kern.terms if not t.dirac_factors)
    if not reg_terms:
        return total

    # kinetic action moved to the test functions: pairings against the
    # second derivatives
    kinetic = (
        (test_bra, test_ket.second_derivative),
        (test_bra.second_derivative, lambda y: -test_ket(y)),
    )
    total += _pair(DistributionalKernel(terms=reg_terms), kinetic, test_bra, test_ket)

    # potential terms applied to the regular part: the line terms
    # conj(z) delta(x - pos) K(x, y) - z K(x, y) delta(y - pos)
    potential = []
    for z, pos in ((zp, a), (zm, -a)):
        dirac_x, dirac_y = KernelPrimitive("dirac", "x", -pos), KernelPrimitive("dirac", "y", -pos)
        for t in reg_terms:
            potential.append(KernelTerm(np.conj(z) * t.coefficient, (dirac_x,) + t.factors))
            potential.append(KernelTerm(-z * t.coefficient, (dirac_y,) + t.factors))
    potential_kern = DistributionalKernel(terms=tuple(potential))
    total += _pair(potential_kern, ((test_bra, test_ket),), test_bra, test_ket)
    return total
