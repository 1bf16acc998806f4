"""Test oracle: the adaptive iterated-QUADPACK kernel pairing.

This is the pairing ddscatter used before the panel Gauss-Legendre rule,
kept as an independent reference for it.  Dirac factors are integrated
out by hand, as in kernels.kernel_pair; the rest is nested
``integrate_1d`` calls with every factor kink, and every crossing of two
factor lines, declared as a breakpoint.  QUADPACK asks for one point at
a time, so the packets and the kernel factors are transcribed here as
scalar ``math``/``cmath`` functions of Python floats, not evaluated
through the package's array code.  It is still slow (up to a second per
2D pairing on a small box) and is not part of the package.
"""

import cmath
import math
from dataclasses import replace

from ddscatter.kernels import _ARG_COEFFS, _infer_support, _solve_dirac_point
from ddscatter.numerics import DEFAULT_SPEC, integrate_1d

_FACTOR = {
    "const": lambda u, rate: 1.0,
    "sign": lambda u, rate: float((u > 0) - (u < 0)),
    "heaviside": lambda u, rate: 0.5 * ((u > 0) - (u < 0) + 1),
    "exp_abs": lambda u, rate: math.exp(-rate * abs(u)),
    "abs": lambda u, rate: abs(u),
    "linear": lambda u, rate: u,
}


def _packet(g, conjugate=False):
    """The GaussianPacket g (or its conjugate) at one float x."""
    norm = math.pi ** (-0.25) / math.sqrt(g.sigma)
    width2 = 2 * g.sigma**2
    ik0 = -1j * g.k0 if conjugate else 1j * g.k0
    return lambda x: norm * cmath.exp(-((x - g.x0) ** 2) / width2 + ik0 * x)


def _term_value(t, x, y):
    v = complex(t.coefficient)
    for f in t.regular_factors:
        cx, cy = _ARG_COEFFS[f.argument]
        v *= _FACTOR[f.kind](cx * x + cy * y + f.shift, f.rate)
    return v


def _y_breakpoints(factors, x):
    pts = []
    for f in factors:
        cx, cy = _ARG_COEFFS[f.argument]
        if cy != 0:
            pts.append((-f.shift - cx * x) / cy)
    return pts


def _x_breakpoints_at(factors, y):
    pts = []
    for f in factors:
        cx, cy = _ARG_COEFFS[f.argument]
        if cx != 0:
            pts.append((-f.shift - cy * y) / cx)
    return pts


def oracle_pair(kern, bra, ket, spec=DEFAULT_SPEC, support=None):
    """<bra | K | ket> by iterated adaptive quadrature; bra and ket are
    GaussianPackets."""
    lo, hi = support if support is not None else _infer_support(bra, ket)
    bra, ket = _packet(bra, conjugate=True), _packet(ket)
    total = 0.0 + 0.0j
    if kern.identity_coefficient != 0:
        total += kern.identity_coefficient * integrate_1d(
            lambda x: bra(x) * ket(x), lo, hi, spec
        )
    regular_group = []
    for t in kern.terms:
        diracs = t.dirac_factors
        if len(diracs) == 2:
            x0, y0, jac = (float(v) for v in _solve_dirac_point(diracs))
            if lo <= x0 <= hi and lo <= y0 <= hi:
                total += jac * _term_value(t, x0, y0) * bra(x0) * ket(y0)
        elif len(diracs) == 1:
            total += _single_dirac(t, diracs[0], bra, ket, lo, hi, spec)
        else:
            regular_group.append(t)
    if regular_group:
        total += _regular_group(regular_group, bra, ket, lo, hi, spec)
    return total


def _single_dirac(t, d, bra, ket, lo, hi, spec):
    cx, cy = _ARG_COEFFS[d.argument]
    reg = t.regular_factors
    if cy == 0:  # delta in x alone
        x0 = -d.shift
        if not (lo <= x0 <= hi):
            return 0.0
        return integrate_1d(
            lambda y: _term_value(t, x0, y) * bra(x0) * ket(y),
            lo, hi, spec, points=_y_breakpoints(reg, x0),
        )
    if cx == 0:  # delta in y alone
        y0 = -d.shift
        if not (lo <= y0 <= hi):
            return 0.0
        return integrate_1d(
            lambda x: _term_value(t, x, y0) * bra(x) * ket(y0),
            lo, hi, spec, points=_x_breakpoints_at(reg, y0),
        )

    # diagonal line, parametrized by y
    def g(y):
        x = (-d.shift - cy * y) / cx
        if x < lo or x > hi:
            return 0.0
        return _term_value(t, x, y) * bra(x) * ket(y)

    pts = []
    for f in reg:
        fx, fy = _ARG_COEFFS[f.argument]
        slope = fy - fx * cy / cx
        if slope != 0:
            pts.append((-f.shift + fx * d.shift / cx) / slope)
    return integrate_1d(g, lo, hi, spec, points=pts) / abs(cx)


def _regular_group(terms, bra, ket, lo, hi, spec):
    inner_spec = replace(spec, abs_tol=max(spec.abs_tol, 1e-12), rel_tol=max(spec.rel_tol, 1e-11))
    factors = [f for t in terms for f in t.regular_factors]
    # the outer integrand kinks where a factor line is vertical and where
    # two factor lines cross
    x_cuts = []
    for i, f in enumerate(factors):
        fx, fy = _ARG_COEFFS[f.argument]
        if fy == 0:
            x_cuts.append(-f.shift / fx)
        for g in factors[i + 1:]:
            gx, gy = _ARG_COEFFS[g.argument]
            det = fx * gy - gx * fy
            if det != 0:
                x_cuts.append((-f.shift * gy + g.shift * fy) / det)

    def outer(x):
        bx = bra(x)
        if bx == 0:
            return 0.0
        return bx * integrate_1d(
            lambda y: sum(_term_value(t, x, y) for t in terms) * ket(y),
            lo, hi, inner_spec, points=_y_breakpoints(factors, x),
        )

    return integrate_1d(outer, lo, hi, spec, points=x_cuts)
