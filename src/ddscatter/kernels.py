"""Symbolic distributional kernels.

The metric, Hermitianized-Hamiltonian and pseudo-Hermitian observable
kernels are all finite sums of terms

    coefficient * product of primitives in x, y, x-y, x+y,

where the primitives are constants, signs, step functions, Dirac deltas,
|u| and exp(-rate |u|) factors, each with a real shift.  Keeping them
symbolic lets Dirac factors be integrated out exactly when pairing with
wave functions, instead of sampling distributions on a grid.

Every value goes through one evaluator (_TermArrays) and its one factor
table: point values, grids, the grid module's momentum operator, and the
pairings' integrands, where a piece is the evaluator with its factors'
signs fixed.  Pairings integrate Dirac factors out exactly and the rest
with composite Gauss-Legendre panels (the numerics panel rule) piece by
piece, on the cells and line segments cut out by the factors' kink
lines, where the integrands are smooth.  On a piece signs and steps
fold into the coefficients once, and a piece on which the terms cancel
identically is skipped.  Pairings and hermitian_completion refuse a
derivative part.  They pair GaussianPackets, which own the box that
bounds every packet integral: x0 +- B sigma, with B set by the panel
tolerance (8 at 1e-10).  Plane panels start at the narrower packet's
scale, line panels at the scale of the two packets' product.

Conventions: theta(0) = 1/2, sign(0) = 0.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import DomainError, SingularPointError
from .numerics import _coarsest_width, _converge, _panel_count, _unit_panels, integrate_panels

__all__ = [
    "GaussianPacket",
    "KernelPrimitive",
    "KernelTerm",
    "DistributionalKernel",
    "kernel_eval",
    "kernel_pair",
    "regular_part_grid",
    "singular_mask",
    "hermitian_completion",
]

_KINDS = ("const", "sign", "heaviside", "dirac", "exp_abs", "abs", "linear")
_ARGS = ("x", "y", "x-y", "x+y")
# kinds whose value jumps or kinks where their argument vanishes
_KINKED = ("sign", "heaviside", "exp_abs", "abs")

# linear-form coefficients of each argument in (x, y)
_ARG_COEFFS = {"x": (1.0, 0.0), "y": (0.0, 1.0), "x-y": (1.0, -1.0), "x+y": (1.0, 1.0)}


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
    def box(self):
        """(x0 - B sigma, x0 + B sigma): the interval its integrals run over.

        B = ceil(sqrt(2 ln(1/tol))) + 1 for the panel tolerance tol =
        numerics._PANEL_SPEC.abs_tol, read when called: 8 at 1e-10, 9 at
        1e-13.  The mass of |psi| outside the box is
        pi^{-1/4} sqrt(2 pi) sqrt(sigma) erfc(B/sqrt2), about
        2.3e-15 sqrt(sigma) at B = 8.  A tail below double-precision
        rounding changes no sum, so tol stops at the machine epsilon
        (B = 10)."""
        tol = max(numerics._PANEL_SPEC.abs_tol, sys.float_info.epsilon)
        half = (math.ceil(math.sqrt(2.0 * math.log(1.0 / tol))) + 1) * self.sigma
        return self.x0 - half, self.x0 + half

    @property
    def panel_width(self):
        """Width of its coarsest quadrature panels, 4 min(sigma, 1/|k0|):
        on them 12 Gauss-Legendre nodes integrate a packet product to
        about 1e-13, so the first halving usually meets the tolerance."""
        if self.k0 == 0:
            return 4.0 * self.sigma
        return min(4.0 * self.sigma, 4.0 / abs(self.k0))

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


def _require_packets(*psis):
    """DomainError unless every argument is a GaussianPacket."""
    if not all(isinstance(psi, GaussianPacket) for psi in psis):
        raise DomainError("packet arguments must be GaussianPackets")


def _require_multiplication(kern, name):
    """DomainError when kern has a derivative part (a kinetic or momentum
    flag), which pairings and completions would drop or miscount."""
    if kern.second_derivative_flag or kern.momentum_flag:
        raise DomainError(f"{name} handles multiplication-type kernels only; "
                          "derivative parts are applied by the Hamiltonian module")


# kinds that are constant where their argument keeps one sign; the rest
# (linear, abs, exp_abs) vary with the point
_PIECE_CONSTANT = ("const", "sign", "heaviside")


def _factor_values(kind, u, s, rate):
    """kind(u), given s = sign(u) and the decay rate for exp_abs.

    At points s is sign(u), elementwise.  On a piece, where no kink line
    passes, s is the one sign u keeps there: const, sign and heaviside
    are then constants that do not read u, |u| is s u and exp(-rate |u|)
    is exp(-rate s u)."""
    if kind == "const":
        return 1.0
    if kind == "sign":
        return s
    if kind == "heaviside":
        return 0.5 * (s + 1.0)
    if kind == "exp_abs":
        return np.exp(-rate * (s * u))
    if kind == "abs":
        return s * u
    if kind == "linear":
        return u
    raise SingularPointError("Dirac factor has no pointwise value")


@dataclass(frozen=True)
class KernelPrimitive:
    """One factor: kind(argument + shift), with a decay rate for exp_abs."""

    kind: str
    argument: str
    shift: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown primitive kind {self.kind!r}")
        if self.argument not in _ARGS:
            raise DomainError(f"unknown argument {self.argument!r}")
        if not (np.isfinite(self.shift) and np.isfinite(self.rate)):
            raise DomainError("primitive shift and rate must be finite")
        if self.kind == "exp_abs" and self.rate <= 0:
            raise DomainError("exp_abs needs a positive rate")


@dataclass(frozen=True)
class KernelTerm:
    coefficient: complex
    factors: tuple

    def __post_init__(self):
        diracs = [f for f in self.factors if f.kind == "dirac"]
        args = [f.argument for f in diracs]
        if len(args) != len(set(args)):
            raise DomainError("at most one Dirac factor per independent direction")

    @property
    def dirac_factors(self):
        return tuple(f for f in self.factors if f.kind == "dirac")

    @property
    def regular_factors(self):
        return tuple(f for f in self.factors if f.kind != "dirac")


@dataclass(frozen=True)
class DistributionalKernel:
    """delta(x-y)-diagonal parts plus a finite list of product terms.

    ``identity_coefficient`` multiplies delta(x-y); the flags mark a
    delta(x-y)(-d^2/dx^2) kinetic part and a delta(x-y)(-i d/dx) momentum
    part, which pointwise evaluation and pairing treat as out of scope for
    this module (the Hamiltonian module applies them analytically).
    """

    identity_coefficient: complex = 0.0
    second_derivative_flag: bool = False
    momentum_flag: bool = False
    terms: tuple = field(default_factory=tuple)

    def singular_lines(self):
        """All Dirac supports, as (argument, shift) pairs, identity included."""
        lines = []
        if self.identity_coefficient != 0 or self.second_derivative_flag or self.momentum_flag:
            lines.append(("x-y", 0.0))
        for t in self.terms:
            for f in t.dirac_factors:
                lines.append((f.argument, f.shift))
        return lines

    def _regular(self) -> "_TermArrays":
        """The Dirac-free terms, compiled to arrays on first use."""
        arrays = self.__dict__.get("_regular_terms")
        if arrays is None:
            arrays = _TermArrays(
                (t.coefficient, t.regular_factors) for t in self.terms if not t.dirac_factors
            )
            object.__setattr__(self, "_regular_terms", arrays)
        return arrays

    def to_records(self):
        return {
            "identity_coefficient": [self.identity_coefficient.real, self.identity_coefficient.imag],
            "second_derivative": self.second_derivative_flag,
            "momentum": self.momentum_flag,
            "terms": [
                {
                    "coefficient": [t.coefficient.real, t.coefficient.imag],
                    "factors": [
                        {"kind": f.kind, "argument": f.argument, "shift": f.shift, "rate": f.rate}
                        for f in t.factors
                    ],
                }
                for t in self.terms
            ],
        }

    @staticmethod
    def from_records(rec) -> "DistributionalKernel":
        terms = tuple(
            KernelTerm(
                complex(*t["coefficient"]),
                tuple(KernelPrimitive(**f) for f in t["factors"]),
            )
            for t in rec["terms"]
        )
        return DistributionalKernel(
            identity_coefficient=complex(*rec["identity_coefficient"]),
            second_derivative_flag=rec["second_derivative"],
            momentum_flag=rec["momentum"],
            terms=terms,
        )


class _TermArrays:
    """Regular factors of a list of terms, compiled once: the one
    evaluator of kernel terms.

    Each distinct factor is one row: kind, linear-form coefficients
    (cx, cy), shift, rate and sign.  A call evaluates every row at all
    points, then forms each term as its coefficient times its rows in
    factor order and adds the terms one by one, the order the symbolic
    definition spells out.  A row's sign is sign(u) at each point, or,
    given ``signs`` ({factor: sign}), the one sign its argument keeps on a
    piece: piece() returns such an evaluator.  Terms left with no factor
    at all sum to one scalar, returned for any points.
    """

    def __init__(self, terms, signs=None):
        terms = [(c, tuple(factors)) for c, factors in terms]
        self.factors = tuple(dict.fromkeys(f for _, factors in terms for f in factors))
        self.kinds = tuple(f.kind for f in self.factors)
        index = {f: r for r, f in enumerate(self.factors)}
        self.coefficients = np.array([c for c, _ in terms], dtype=complex)
        self.term_rows = tuple(tuple(index[f] for f in factors) for _, factors in terms)
        # sign None: read sign(u) at the points
        self.rows = [(f.kind, *_ARG_COEFFS[f.argument], f.shift, f.rate, signs[f] if signs else None)
                     for f in self.factors]
        forms = np.array([row[1:4] for row in self.rows], dtype=float).reshape(-1, 3)
        self.cx, self.cy, self.shift = forms.T
        # kink lines cx*x + cy*y + shift = 0, each listed once
        self.lines = tuple(sorted({
            (*_ARG_COEFFS[f.argument], f.shift) for f in self.factors if f.kind in _KINKED
        }))
        # np.complex128 coefficients added one by one, in term order
        self.constant = None if self.factors else sum(self.coefficients, 0.0)
        self._pieces = {}

    def __call__(self, x, y):
        """Sum of the terms at the points (x, y), broadcast together."""
        if self.constant is not None:
            return self.constant
        values = []
        for kind, cx, cy, shift, rate, sign in self.rows:
            u = cx * x + cy * y + shift
            values.append(_factor_values(kind, u, np.sign(u) if sign is None else sign, rate))
        total = 0.0
        for coefficient, rows in zip(self.coefficients, self.term_rows):
            v = coefficient
            for r in rows:
                v = v * values[r]
            total = total + v
        return total

    def signs(self, x, y):
        """Sign of each row's argument at the point (x, y)."""
        return np.sign(self.cx * x + self.cy * y + self.shift)

    def piece(self, signs):
        """The terms on a piece where row r's argument keeps the sign
        signs[r]: this evaluator with the signs fixed, or None where the
        terms cancel identically.

        Each term's constant factors (const, sign, heaviside) fold into its
        coefficient, in factor order, a product by +-1, 0, 1/2 or 1 and so
        exact; a term that folds to zero is dropped.  The folded terms keep
        their linear, abs and exp_abs factors, so at points on the piece
        the evaluator returns the kernel_eval values, bit for bit.  The
        terms cancel identically when, grouped by their remaining factors,
        every group's folded coefficients sum to exactly 0.
        """
        key = tuple(signs)
        if key not in self._pieces:
            self._pieces[key] = self._fold(signs)
        return self._pieces[key]

    def _fold(self, signs):
        terms, groups, kept = [], {}, {}
        for coefficient, rows in zip(self.coefficients, self.term_rows):
            scalar, varying = coefficient, []
            for r in rows:
                if self.kinds[r] in _PIECE_CONSTANT:
                    scalar = scalar * _factor_values(self.kinds[r], None, signs[r], None)
                else:
                    varying.append(r)
            group = tuple(sorted(varying))
            groups[group] = groups.get(group, 0.0) + scalar
            if scalar != 0:
                terms.append((scalar, [self.factors[r] for r in varying]))
                kept.update((self.factors[r], signs[r]) for r in varying)
        if all(total == 0 for total in groups.values()):
            return None
        return _TermArrays(terms, kept)


_SUPPORT_TOL = 1e-12


def _on_support(argument, shift, x, y):
    """kernel_eval's rule for (x, y) lying on the Dirac line argument + shift = 0."""
    cx, cy = _ARG_COEFFS[argument]
    scale = np.maximum(np.maximum(1.0, np.abs(x)), np.abs(y))
    return np.abs(cx * x + cy * y + shift) < _SUPPORT_TOL * scale


def kernel_eval(kern: DistributionalKernel, x: float, y: float) -> complex:
    """Regular-part value at a point off every Dirac support."""
    for arg, shift in kern.singular_lines():
        if _on_support(arg, shift, x, y):
            raise SingularPointError(
                f"({x}, {y}) lies on the Dirac support {arg} + {shift} = 0"
            )
    return complex(kern._regular()(x, y))


# points per evaluation block: bounds the temporaries of grids and pairings
# (64 kB per complex array, below glibc's default mmap threshold)
_BLOCK = 4096


def regular_part_grid(kern: DistributionalKernel, xs, ys):
    """Regular part on the grid xs x ys (Dirac-carrying terms contribute
    nothing); entry [i, j] is the kernel_eval value at (xs[i], ys[j])."""
    xs, ys = np.ravel(np.asarray(xs, float)), np.ravel(np.asarray(ys, float))
    evaluate = kern._regular()
    out = np.empty((len(xs), len(ys)), dtype=complex)
    rows = max(1, _BLOCK // max(1, len(ys)))
    for start in range(0, len(xs), rows):
        out[start:start + rows] = evaluate(xs[start:start + rows, None], ys[None, :])
    return out


def singular_mask(kern: DistributionalKernel, xs, ys):
    """True at the grid points (xs[i], ys[j]) where kernel_eval raises
    SingularPointError: those on a Dirac support, by the same rule."""
    X = np.ravel(np.asarray(xs, float))[:, None]
    Y = np.ravel(np.asarray(ys, float))[None, :]
    mask = np.zeros((X.shape[0], Y.shape[1]), dtype=bool)
    for arg, shift in kern.singular_lines():
        mask |= _on_support(arg, shift, X, Y)
    return mask


def _solve_dirac_point(diracs):
    """Intersection point of two Dirac lines and the Jacobian factor."""
    (a1, s1), (a2, s2) = [(f.argument, f.shift) for f in diracs]
    A = np.array([_ARG_COEFFS[a1], _ARG_COEFFS[a2]], dtype=float)
    det = np.linalg.det(A)
    if abs(det) < 1e-14:
        raise DomainError(f"parallel Dirac factors {a1}, {a2} in one term")
    sol = np.linalg.solve(A, [-s1, -s2])
    return sol[0], sol[1], 1.0 / abs(det)


def _infer_support(bra, ket):
    """The union of the two packets' boxes and [-2, 2]."""
    (bra_lo, bra_hi), (ket_lo, ket_hi) = bra.box, ket.box
    return (min(bra_lo, ket_lo, -2.0), max(bra_hi, ket_hi, 2.0))


def _decay_lengths(kern):
    """8/rate for each exp_abs factor: 12 nodes resolve exp(-u) on a panel
    8 wide to 1e-16 but leave about 1e-8 on one 16 wide."""
    return [8.0 / f.rate for t in kern.terms for f in t.factors if f.kind == "exp_abs"]


def _panel_width(kern, packets, lo, hi):
    """Width of the coarsest plane panels: the shortest of the packets'
    panel widths and the kernel's decay lengths, floored by the panel
    budget."""
    return _coarsest_width(min(_decay_lengths(kern) + [p.panel_width for p in packets]), lo, hi)


def _line_width(kern, bra, ket, lo, hi):
    """Width of the coarsest line panels.  On a Dirac line the two packets
    multiply to a Gaussian of width (sigma_bra^-2 + sigma_ket^-2)^-1/2
    whose phase turns at up to |k_bra| + |k_ket|, so the panels start at
    4 min(that width, 1/(|k_bra| + |k_ket|)), capped by the kernel's decay
    lengths and floored by the panel budget."""
    width = 4.0 / math.hypot(1.0 / bra.sigma, 1.0 / ket.sigma)
    k = abs(bra.k0) + abs(ket.k0)
    if k > 0:
        width = min(width, 4.0 / k)
    return _coarsest_width(min(_decay_lengths(kern) + [width]), lo, hi)


def kernel_pair(kern: DistributionalKernel, bra, ket):
    """<bra | K | ket> = int int conj(bra(x)) K(x, y) ket(y) dx dy for
    GaussianPackets bra and ket; anything else raises DomainError.

    Dirac factors are integrated out analytically (one dimension removed
    per Dirac, with the proper Jacobian); what remains is integrated by
    composite Gauss-Legendre panels on the smooth pieces (cells, or line
    segments) between the factors' kink lines, over the union of the
    packets' boxes and [-2, 2], halving the panels until two widths agree
    to the numerics panel tolerance.  The factors constant on a piece
    (signs and steps) are evaluated once per piece, and the pieces on
    which the terms cancel identically are skipped.
    """
    _require_packets(bra, ket)
    _require_multiplication(kern, "kernel_pair")
    return _pair(kern, ((bra, ket),), bra, ket)


def _pair(kern, products, bra, ket):
    """Sum over (f, g) in products of <f | K | g>, where f and g are the
    GaussianPackets bra and ket or their derivatives: the pair's square
    [lo, hi]^2 and coarsest panel widths (h on the plane, h_line on Dirac
    lines) serve every product."""
    lo, hi = _infer_support(bra, ket)
    h = _panel_width(kern, (bra, ket), lo, hi)
    h_line = _line_width(kern, bra, ket, lo, hi)
    total = 0.0 + 0.0j
    # single-Dirac terms grouped by their line; the identity is delta(x-y)
    lines = {}
    if kern.identity_coefficient != 0:
        lines[("x-y", 0.0)] = [(complex(kern.identity_coefficient), ())]
    for t in kern.terms:
        diracs = t.dirac_factors
        if len(diracs) == 2:
            x0, y0, jac = _solve_dirac_point(diracs)
            if lo <= x0 <= hi and lo <= y0 <= hi:
                value = _TermArrays([(t.coefficient, t.regular_factors)])(x0, y0)
                total += jac * complex(value * _weight(products, x0, y0))
        elif len(diracs) == 1:
            key = (diracs[0].argument, diracs[0].shift)
            lines.setdefault(key, []).append((t.coefficient, t.regular_factors))
    for (arg, shift), terms in lines.items():
        total += _pair_line(arg, shift, _TermArrays(terms), products, lo, hi, h_line)
    regular = kern._regular()
    if regular.term_rows:
        total += _pair_plane(regular, products, lo, hi, h)
    return total


def _weight(products, x, y):
    """sum over (bra, ket) of conj(bra(x)) ket(y)."""
    w = 0.0
    for bra, ket in products:
        w = w + np.conj(bra(x)) * ket(y)
    return w


def _pair_line(argument, shift, arrays, products, lo, hi, h):
    """Pairing of terms sharing the Dirac factor delta(argument + shift).

    The line is parametrized by x when it is horizontal and by y
    otherwise; the parameter and the other coordinate both stay in the
    support, and the kink lines of the regular factors cut it into
    segments.  Each segment is a piece: every factor's sign is read once,
    at its middle, and a segment on which the terms cancel identically
    is skipped (its panels still count against the panel budget).
    """
    cx, cy = _ARG_COEFFS[argument]
    if cx == 0:  # y = -shift/cy: parameter x
        px, dx, py, dy, jac = 0.0, 1.0, -shift / cy, 0.0, 1.0 / abs(cy)
    else:  # x = (-shift - cy*y)/cx: parameter y
        px, dx, py, dy, jac = -shift / cx, -cy / cx, 0.0, 1.0, 1.0 / abs(cx)
    t0, t1 = lo, hi
    for p, d in ((px, dx), (py, dy)):
        if d == 0:
            if not lo <= p <= hi:
                return 0.0
        else:
            ta, tb = sorted(((lo - p) / d, (hi - p) / d))
            t0, t1 = max(t0, ta), min(t1, tb)
    if t1 <= t0:
        return 0.0
    # each row's argument along the line is slope t + offset: a kinked
    # row crossing the line cuts it at -offset/slope, and a factor on the
    # line itself has slope 0 and offset exactly 0
    slope = arrays.cx * dx + arrays.cy * dy
    offset = arrays.cx * px + arrays.cy * py + arrays.shift
    crossing = [r for r, kind in enumerate(arrays.kinds) if kind in _KINKED and slope[r] != 0]
    cuts = sorted(c for c in {t0, t1, *(-offset[crossing] / slope[crossing])} if t0 <= c <= t1)
    pieces = [arrays.piece(np.sign(slope * (0.5 * (a + b)) + offset)) for a, b in zip(cuts, cuts[1:])]

    def integrand(t):
        # integrate_panels passes one segment's nodes per call
        piece = pieces[bisect.bisect(cuts, t[0]) - 1]
        if piece is None:
            return np.zeros(t.shape, dtype=complex)
        x, y = px + dx * t, py + dy * t
        return piece(x, y) * _weight(products, x, y)

    return jac * integrate_panels(integrand, cuts, h)


def _plane_cells(lines, lo, hi, h):
    """Cells of [lo, hi]^2 on which no kink line passes.

    The outer x-cuts are the vertical lines, the pairwise intersections of
    the other lines, and the points where those meet y = lo or y = hi, so
    within an outer panel the lines keep their order and each cell lies
    between two of them (or the box edges).  Returns, per outer panel,
    (xa, xb, lower, upper, counts): lower/upper hold (slope, intercept)
    of each cell's bounding lines, counts its panel count at width h.
    """
    vertical = [-s / cx for cx, cy, s in lines if cy == 0]
    slanted = sorted({(-cx / cy, -s / cy) for cx, cy, s in lines if cy != 0})
    cuts = {lo, hi, *vertical}
    for i, (m1, b1) in enumerate(slanted):
        for m2, b2 in slanted[i + 1:]:
            if m1 != m2:
                cuts.add((b2 - b1) / (m1 - m2))
        if m1 != 0:
            cuts.update(((lo - b1) / m1, (hi - b1) / m1))
    cuts = sorted(c for c in cuts if lo <= c <= hi)
    panels = []
    for xa, xb in zip(cuts[:-1], cuts[1:]):
        xm = 0.5 * (xa + xb)
        inside = sorted((m * xm + b, m, b) for m, b in slanted if lo < m * xm + b < hi)
        edges = np.array([(0.0, lo)] + [(m, b) for _, m, b in inside] + [(0.0, hi)])
        lower, upper = edges[:-1], edges[1:]
        span = upper - lower
        widest = np.maximum(span[:, 0] * xa + span[:, 1], span[:, 0] * xb + span[:, 1])
        panels.append((xa, xb, lower, upper, [_panel_count(w, h) for w in widest]))
    return panels


def _pair_plane(arrays, products, lo, hi, h):
    """Pairing of the Dirac-free terms: tensor Gauss-Legendre on each
    cell, y mapped linearly between the cell's bounding lines.  Each cell
    is a piece: every factor's sign is read once, at its centre, and a
    cell on which the terms cancel identically is skipped (its panels
    still count against the panel budget)."""
    panels = _plane_cells(arrays.lines, lo, hi, h)
    columns = []
    for xa, xb, lower, upper, counts in panels:
        xm = 0.5 * (xa + xb)
        ym = 0.5 * ((lower[:, 0] + upper[:, 0]) * xm + lower[:, 1] + upper[:, 1])
        pieces = [arrays.piece(arrays.signs(xm, y)) for y in ym]
        live = [i for i, piece in enumerate(pieces) if piece is not None]
        if live:
            columns.append((xa, xb, lower[live], upper[live],
                            [counts[i] for i in live], [pieces[i] for i in live]))

    def rule(level):
        total = 0.0 + 0.0j
        for xa, xb, lower, upper, counts, pieces in columns:
            tx, wx = _unit_panels(_panel_count(xb - xa, h) << level)
            x, wx = xa + (xb - xa) * tx, (xb - xa) * wx
            parts = [_unit_panels(n << level) for n in counts]
            sizes = [len(t) for t, _ in parts]
            bounds = np.cumsum([0] + sizes)
            cell = np.repeat(np.arange(len(parts)), sizes)
            t = np.concatenate([t for t, _ in parts])
            wt = np.concatenate([w for _, w in parts])
            m0, b0 = lower[cell, 0], lower[cell, 1]
            dm, db = upper[cell, 0] - m0, upper[cell, 1] - b0
            rows = max(1, _BLOCK // len(t))
            for s in range(0, len(x), rows):
                xs = x[s:s + rows, None]
                span = dm * xs + db
                y = m0 * xs + b0 + span * t
                k = np.empty(y.shape, dtype=complex)
                for piece, a, b in zip(pieces, bounds, bounds[1:]):
                    k[:, a:b] = piece(xs, y[:, a:b])
                f = k * _weight(products, xs, y)
                total += np.sum((wx[s:s + rows, None] * span * wt) * f)
        return total

    outer = sum(_panel_count(xb - xa, h) for xa, xb, _, _, _ in panels)
    inner = max(sum(counts) for _, _, _, _, counts in panels)
    return _converge(rule, max(outer, inner))


_MIRROR_ARG = {"x": "y", "y": "x", "x+y": "x+y"}
_ODD_KINDS = ("sign", "linear")
_EVEN_KINDS = ("abs", "exp_abs", "dirac", "const")


def _mirror_factor(f: KernelPrimitive):
    """Factor with x and y interchanged; returns (factor, sign_flip)."""
    if f.argument in _MIRROR_ARG:
        return KernelPrimitive(f.kind, _MIRROR_ARG[f.argument], f.shift, f.rate), 1.0
    # argument x-y: value at swapped point is kind(-(x-y) + shift) = kind(-(x-y-shift))
    if f.kind in _EVEN_KINDS:
        return KernelPrimitive(f.kind, "x-y", -f.shift, f.rate), 1.0
    if f.kind in _ODD_KINDS:
        return KernelPrimitive(f.kind, "x-y", -f.shift, f.rate), -1.0
    raise DomainError(f"cannot mirror {f.kind} factor in x-y (would split the term)")


def hermitian_completion(kern: DistributionalKernel) -> DistributionalKernel:
    """K(x,y) + conj(K(y,x)): the (x <-> y)* completion.

    Guarantees Hermitian symmetry of the result; the identity coefficient
    doubles (so a listed 1/2 delta becomes the full delta).  A kernel with
    a derivative part raises DomainError.
    """
    _require_multiplication(kern, "hermitian_completion")
    mirrored = []
    for t in kern.terms:
        sign_flip = 1.0
        factors = []
        for f in t.factors:
            mf, s = _mirror_factor(f)
            factors.append(mf)
            sign_flip *= s
        mirrored.append(KernelTerm(np.conj(t.coefficient) * sign_flip, tuple(factors)))
    return DistributionalKernel(
        identity_coefficient=kern.identity_coefficient + np.conj(kern.identity_coefficient),
        terms=kern.terms + tuple(mirrored),
    )
