"""Self-contained numerical kernel.

Adaptive quadrature (finite and infinite 1D integrals), composite
Gauss-Legendre panels for integrands smooth between given breakpoints,
principal inverse square root of 2x2 matrices, complex Newton
refinement, and argument-principle zero counting on rectangular
contours.  Everything here is pure and reentrant.  scipy is imported
only by _quad, the one QUADPACK call, so importing the package does not
load it.

``count_zeros`` takes an array-callable ``f``: it maps a complex ndarray
to a complex ndarray of the same shape, and the contour's points are
batched into few calls.  ``refine_root`` takes ``fdf``, which maps a
complex k to the pair (f(k), f'(k)), and calls it once per Newton step.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchError,
    ContourError,
    DomainError,
    NoConvergenceError,
    QuadratureError,
)

__all__ = [
    "ComplexRect",
    "QuadratureSpec",
    "integrate_1d",
    "integrate_panels",
    "matrix_inv_sqrt",
    "count_zeros",
    "refine_root",
]


# a point this close outside a rectangle still counts as in it
_CONTAINS_SLACK = 1e-7


@dataclass(frozen=True)
class ComplexRect:
    """Axis-aligned rectangle in the complex k-plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        # in Python floats a side past the float range is inf, not a warning
        width = float(self.re_max) - float(self.re_min)
        height = float(self.im_max) - float(self.im_min)
        if not (math.isfinite(width) and math.isfinite(height)):
            raise DomainError("rectangle edges and side lengths must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError("degenerate rectangle: need re_min < re_max and im_min < im_max")

    @property
    def corners(self):
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def split(self, frac=0.5):
        """Cut the longer side at lo + frac * (hi - lo); counts must add
        over the two parts."""
        if (self.re_max - self.re_min) >= (self.im_max - self.im_min):
            mid = self.re_min + frac * (self.re_max - self.re_min)
            return (
                ComplexRect(self.re_min, mid, self.im_min, self.im_max),
                ComplexRect(mid, self.re_max, self.im_min, self.im_max),
            )
        mid = self.im_min + frac * (self.im_max - self.im_min)
        return (
            ComplexRect(self.re_min, self.re_max, self.im_min, mid),
            ComplexRect(self.re_min, self.re_max, mid, self.im_max),
        )

    def contains(self, k: complex) -> bool:
        """k lies in the rectangle or within 1e-7 of its edges."""
        return (
            self.re_min - _CONTAINS_SLACK <= k.real <= self.re_max + _CONTAINS_SLACK
            and self.im_min - _CONTAINS_SLACK <= k.imag <= self.im_max + _CONTAINS_SLACK
        )


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the quadrature routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 400

    def __post_init__(self):
        if not np.all(np.isfinite([self.abs_tol, self.rel_tol])):
            raise DomainError("tolerances must be finite")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be a positive integer")


DEFAULT_SPEC = QuadratureSpec()


def _quad(f, lo, hi, **kwargs):
    """(value, error bound) of scipy.integrate.quad, the package's one
    QUADPACK call; no floating-point warning or IntegrationWarning leaves
    it, whatever the filters, and the caller judges the bound.  The
    filters are the process's own, swapped for the call's duration."""
    import warnings

    import scipy.integrate

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(f, lo, hi, **kwargs)


def integrate_1d(f, lo, hi, spec: QuadratureSpec = DEFAULT_SPEC, points=None):
    """Adaptive quadrature of a complex-valued integrand on (lo, hi).

    ``points`` lists interior locations of integrable singularities or
    discontinuities declared by the caller.  Infinite endpoints are
    supported (mapped internally by QUADPACK); ``points`` is honoured only
    on finite intervals, as in QUADPACK.  No IntegrationWarning is
    passed on: the result is judged by _verdict's 50-tolerance rule.
    """
    finite = np.isfinite(lo) and np.isfinite(hi)
    kwargs = dict(
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        complex_func=True,
    )
    if points is not None and finite:
        pts = sorted(p for p in points if lo < p < hi)
        if pts:
            kwargs["points"] = pts
    val, err = _quad(f, lo, hi, **kwargs)
    return _verdict(val, abs(err), spec, "quadrature")


def _tolerance(value, spec):
    """The error bound that spec asks of an estimate: max(abs_tol, rel_tol |value|)."""
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def _verdict(value, bound, spec, rule):
    """The last estimate of a quadrature rule, judged: accepted while its
    error bound is within 50 times _tolerance, else QuadratureError with
    the estimate and the bound."""
    if bound > _tolerance(value, spec) * 50:
        raise QuadratureError(
            f"{rule} error bound {bound:.3e} exceeds tolerance for value {value!r}",
            estimate=value,
            error_bound=bound,
        )
    return value


# 12 nodes on panels four length scales wide integrate a Gaussian packet
# product to about 1e-13, so one halving usually meets _PANEL_SPEC
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_count(length, h):
    return max(1, int(np.ceil(length / h)))


@functools.lru_cache(maxsize=256)
def _unit_panels(count):
    """Gauss-Legendre nodes and weights of `count` equal panels on [0, 1],
    built once per count and shared by every caller, so read-only."""
    t = (np.arange(count)[:, None] / count + (_GL_NODES + 1.0) / (2 * count)).ravel()
    w = np.tile(_GL_WEIGHTS / (2 * count), count)
    t.flags.writeable = w.flags.writeable = False
    return t, w


# the panel rule's one tolerance and budget; _converge and _coarsest_width
# read it when called, so a test can patch it
_PANEL_SPEC = DEFAULT_SPEC


def _coarsest_width(scale, lo, hi):
    """Coarsest panel width on (lo, hi): the integrand's shortest length
    scale, but wide enough for two levels to fit the budget even where a
    pairing line crosses twice the box, so an integrand too steep for
    the budget fails fast with a finite error bound."""
    return max(scale, 4.0 * (hi - lo) / _PANEL_SPEC.max_subdivisions)


def _converge(rule, base_panels):
    """rule(level) integrates with panels of width h / 2**level; levels
    are added until |Q_h - Q_{h/2}| meets _PANEL_SPEC; Q_{h/2} is returned.

    Once another halving would put more than max_subdivisions panels on
    one line, the last estimate gets integrate_1d's _verdict (an infinite
    bound if only one level fit).
    """
    spec = _PANEL_SPEC
    value, bound, level = rule(0), np.inf, 0
    while base_panels << (level + 1) <= spec.max_subdivisions:
        level += 1
        finer = rule(level)
        bound, value = abs(finer - value), finer
        if bound <= _tolerance(value, spec):
            return value
    return _verdict(value, bound, spec, "panel quadrature")


def integrate_panels(f, cuts, h):
    """Composite 12-point Gauss-Legendre integral of f from cuts[0] to
    cuts[-1].

    ``cuts`` are increasing breakpoints; ``f`` is array-callable (a float
    ndarray of nodes in, an ndarray of the same shape out) and smooth
    between neighbouring cuts; each call passes the nodes of one segment
    at one level.  Each segment is split into panels at most
    _coarsest_width(h, cuts[0], cuts[-1]) wide: ``h``, the integrand's
    shortest length scale, widened only where the panel budget needs it.
    All of them are halved together until two widths agree to
    _PANEL_SPEC.  Past its max_subdivisions panels in all the last
    difference is the error bound: beyond 50 times the tolerance
    QuadratureError carries the estimate and that bound (infinite if
    only one level fit).  Returns a complex.
    """
    h = _coarsest_width(h, cuts[0], cuts[-1])
    segments = [(a, b - a, _panel_count(b - a, h)) for a, b in zip(cuts[:-1], cuts[1:])]

    def rule(level):
        total = 0.0 + 0.0j
        for a, length, count in segments:
            t, w = _unit_panels(count << level)
            total += length * np.dot(w, f(a + length * t))
        return complex(total)

    return _converge(rule, sum(count for _, _, count in segments))


_BRANCH_TOL = 1e-13


def matrix_inv_sqrt(K):
    """Principal inverse square root of a diagonalizable 2x2 matrix.

    Returns M with M @ M = inv(K), principal branch taken per eigenvalue.
    Raises BranchError for an eigenvalue on the closed negative real axis
    or a defective (non-diagonalizable) input.
    """
    K = np.asarray(K, dtype=complex)
    if K.shape != (2, 2):
        raise DomainError("matrix_inv_sqrt expects a 2x2 matrix")
    lam, V = np.linalg.eig(K)
    scale = np.linalg.norm(K)
    for ev in lam:
        if ev.real <= 0 and abs(ev.imag) <= _BRANCH_TOL * max(1.0, scale):
            raise BranchError(f"eigenvalue {ev} on the branch cut (closed negative real axis)")
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e8:
        raise BranchError("defective (or nearly defective) matrix: eigenvectors ill-conditioned")
    root = np.exp(-0.5 * np.log(lam))  # principal log
    M = V @ np.diag(root) @ np.linalg.inv(V)
    return M


_NEWTON_MAX_ITER = 100
_NEWTON_RESIDUAL = 1e-10


def refine_root(fdf, seed):
    """Newton refinement of a simple zero of an analytic f from a nearby seed.

    ``fdf`` maps a complex k to the pair (f(k), f'(k)); it is called once
    per Newton step and once more at the root.  Returns the root once
    |f| <= 1e-10 max(1, |f'| |k|); raises NoConvergenceError after 100
    steps, when that residual is missed, or at once when f'(k) = 0 or an
    iterate, f(k) or f'(k) is not finite (a non-finite iterate before fdf
    is called there).  fdf runs under np.errstate(all="ignore"), so an
    iterate where f overflows ends in that error, not in a warning.
    """
    k = complex(seed)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            fk, df = _value_and_slope(fdf, k)
            if df == 0:
                raise NoConvergenceError("vanishing derivative during Newton refinement")
            step = fk / df
            k = k - step
            if abs(step) <= 1e-14 * max(1.0, abs(k)):
                break
        else:
            raise NoConvergenceError(f"no convergence after {_NEWTON_MAX_ITER} Newton iterations")
        fk, df = _value_and_slope(fdf, k)
    if abs(fk) > _NEWTON_RESIDUAL * max(1.0, abs(df) * abs(k)):
        raise NoConvergenceError(f"Newton stalled at |f| = {abs(fk):.3e}")
    return k


def _value_and_slope(fdf, k):
    """fdf(k) as two complexes, with k and both values checked finite."""
    if not cmath.isfinite(k):
        raise NoConvergenceError("non-finite iterate during Newton refinement")
    fk, df = fdf(k)
    fk, df = complex(fk), complex(df)
    if not (cmath.isfinite(fk) and cmath.isfinite(df)):
        raise NoConvergenceError("non-finite value during Newton refinement")
    return fk, df


_WINDING_RESIDUAL = 0.25
_EDGE_SAMPLES = 64
# bounds the initial samples (4 x 2**16 points, a few MB of temporaries)
_MAX_EDGE_SAMPLES = 1 << 16


def count_zeros(f, rect: ComplexRect, max_step: float = None):
    """Number of zeros of an analytic f inside a rectangle.

    ``f`` is array-callable: it takes a complex ndarray and returns one of
    the same shape.  Evaluates the argument-principle integral
    (1/2 pi i) closed-int f'/f dk as the total winding of f along the
    boundary (Delves & Lyness, Math. Comp. 21 (1967) 543).  Each edge
    starts with m = max(64, ceil(longest side / max_step)) samples
    (m = 64 without max_step), all 4 m in one call; then level by level
    every segment whose phase step exceeds pi/2 is bisected, with one
    call per level for all of their midpoints, to a depth of 24.  A
    caller whose f turns by up to pi/2 per max_step passes it, so no
    full turn hides between two samples.  The pre-rounding residual must
    stay below 0.25 or ContourError is raised (a zero too close to the
    contour shows up as unresolvable phase steps or a non-integer
    winding).  It is also raised, before f is called, when m would
    exceed 2**16.  A max_step that is neither None nor finite and positive
    raises DomainError.
    """
    if max_step is not None and not (math.isfinite(max_step) and max_step > 0):
        raise DomainError(f"max_step must be None or finite and positive, got {max_step!r}")
    # the corners in order, the first repeated: edge i runs from [i] to [i + 1]
    corners = np.array(rect.corners + rect.corners[:1])
    starts, ends = corners[:-1], corners[1:]
    # the initial sampling guards against phase aliasing on long edges,
    # bisection resolves the rest
    m = _EDGE_SAMPLES
    if max_step is not None:
        steps = max(rect.re_max - rect.re_min, rect.im_max - rect.im_min) / max_step
        if steps > _MAX_EDGE_SAMPLES:
            raise ContourError(f"rectangle too wide: {steps:.4g} samples per edge exceed 2**16")
        m = max(m, math.ceil(steps))
    ts = np.arange(m) / m
    za = (starts[:, None] + (ends - starts)[:, None] * ts).ravel()
    fa = _on_contour(f, za)
    zb, fb = np.concatenate((za[1:], za[:1])), np.concatenate((fa[1:], fa[:1]))
    total = 0.0
    for depth in range(24, -1, -1):
        dphi = np.angle(fb / fa)
        resolved = np.abs(dphi) <= 0.5 * np.pi
        total += float(dphi[resolved].sum())
        if resolved.all():
            break
        if depth == 0:
            raise ContourError("cannot resolve phase along edge: zero on or near the contour")
        open_ = ~resolved
        za, zb, fa, fb = za[open_], zb[open_], fa[open_], fb[open_]
        zm = 0.5 * (za + zb)
        fm = _on_contour(f, zm)
        za, zb = np.concatenate([za, zm]), np.concatenate([zm, zb])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    winding = total / (2 * np.pi)
    n = int(round(winding))
    residual = abs(winding - n)
    if residual >= _WINDING_RESIDUAL:
        raise ContourError(
            f"winding residual {residual:.3f} >= 0.25: zero too close to the contour; "
            "shrink or shift the rectangle",
            raw_winding=winding,
        )
    if n < 0:
        raise ContourError(f"negative winding {n}: f not analytic inside?", raw_winding=winding)
    return n


def _on_contour(f, zs):
    """f at the contour points zs; ContourError for an exact zero or a
    value that is not finite, whose phase no bisection resolves."""
    fs = np.asarray(f(zs), dtype=complex)
    if np.any(fs == 0):
        raise ContourError("exact zero on the contour")
    if not np.isfinite(fs).all():
        raise ContourError("non-finite value of f on the contour")
    return fs
