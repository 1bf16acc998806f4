"""Symbolic distributional kernels.

The metric, Hermitianized-Hamiltonian and pseudo-Hermitian observable
kernels are all finite sums of terms

    coefficient * product of primitives in x, y, x-y, x+y,

where the primitives are constants, signs, step functions, Dirac deltas,
|u| and exp(-rate |u|) factors, each with a real shift.  Keeping them
symbolic lets Dirac factors be integrated out exactly when pairing with
wave functions, instead of sampling distributions on a grid.

Every pointwise value goes through one array evaluator (_TermArrays).
Pairings integrate Dirac factors out exactly and integrate what remains
with composite Gauss-Legendre panels (the numerics panel rule) on the
cells cut out by the factors' kink lines, where the integrands (smooth
wave functions times exp(-rate |u|), |u|, signs and steps) are smooth.

Conventions: theta(0) = 1/2, sign(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError
from .numerics import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _converge,
    _panel_count,
    _unit_panels,
    integrate_panels,
)

__all__ = [
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


def _primitive_values(kind, u, rate):
    """kind(u) elementwise, with the decay rate for exp_abs."""
    if kind == "const":
        return np.ones_like(np.asarray(u, dtype=float))
    if kind == "sign":
        return np.sign(u)
    if kind == "heaviside":
        return 0.5 * (np.sign(u) + 1.0)
    if kind == "exp_abs":
        return np.exp(-rate * np.abs(u))
    if kind == "abs":
        return np.abs(u)
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
    """Regular factors of a list of terms, compiled to arrays once.

    Each distinct factor is one row of kind code, linear-form coefficients
    (cx, cy), shift and rate.  A call evaluates every row at all points in
    one broadcast, then forms each term as its coefficient times its rows
    in factor order and adds the terms one by one, the order the symbolic
    definition spells out.
    """

    def __init__(self, terms):
        rows = {}
        coefficients, term_rows = [], []
        for coefficient, factors in terms:
            coefficients.append(coefficient)
            term_rows.append(tuple(
                rows.setdefault((f.kind, f.argument, f.shift, f.rate), len(rows))
                for f in factors
            ))
        self.coefficients = np.array(coefficients, dtype=complex)
        self.term_rows = tuple(term_rows)
        codes = np.array([_KINDS.index(kind) for kind, _, _, _ in rows], dtype=int)
        forms = np.array([_ARG_COEFFS[arg] for _, arg, _, _ in rows], dtype=float).reshape(-1, 2)
        self.cx, self.cy = forms[:, :1], forms[:, 1:]
        self.shift = np.array([shift for _, _, shift, _ in rows], dtype=float)[:, None]
        self.rate = np.array([rate for _, _, _, rate in rows], dtype=float)[:, None]
        self.kind_rows = tuple(
            (kind, np.flatnonzero(codes == code))
            for code, kind in enumerate(_KINDS)
            if np.any(codes == code)
        )
        # kink lines cx*x + cy*y + shift = 0, each listed once
        self.lines = tuple(sorted({
            (*_ARG_COEFFS[arg], shift) for kind, arg, shift, _ in rows if kind in _KINKED
        }))

    def __call__(self, x, y):
        """Sum of the terms at the points (x, y), broadcast together."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        u = self.cx * x.ravel() + self.cy * y.ravel() + self.shift
        values = np.empty_like(u)
        for kind, rows in self.kind_rows:
            values[rows] = _primitive_values(kind, u[rows], self.rate[rows])
        total = np.zeros(u.shape[1], dtype=complex)
        for coefficient, rows in zip(self.coefficients, self.term_rows):
            v = coefficient
            for r in rows:
                v = v * values[r]
            total = total + v
        return total.reshape(x.shape)


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
_BLOCK = 8192


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


def _packet_box(packet):
    """(x0 - 14 sigma, x0 + 14 sigma): the interval a packet's integrals
    run over."""
    return packet.x0 - 14 * packet.sigma, packet.x0 + 14 * packet.sigma


def _infer_support(bra, ket):
    box = 40.0
    for fn in (bra, ket):
        if getattr(fn, "sigma", None) is None:
            return (-box, box)
    (bra_lo, bra_hi), (ket_lo, ket_hi) = _packet_box(bra), _packet_box(ket)
    return (min(bra_lo, ket_lo, -2.0), max(bra_hi, ket_hi, 2.0))


def _panel_width(kern, packets, lo, hi, spec):
    """Width of the coarsest panels: twice the shortest length scale among
    the packets' 2 sigma and 2/|k0| and the kernel's four decay lengths
    4/rate.  On a packet's panels, 4 min(sigma, 1/|k0|) wide, 12 nodes
    integrate a packet product to about 1e-13, so the first halving
    usually confirms; they resolve exp(-u) on a panel 8 wide to 1e-16 but
    leave about 1e-8 on one 16 wide, so the decay scale stays.  A plain
    callable declares no scale and counts as (hi - lo)/16.  The width is
    kept large enough for two levels to fit spec.max_subdivisions (cells
    are sized by their wider end, so a line can cross up to twice the box
    in panels), so a kernel too steep for the budget fails fast with a
    finite error bound."""
    scales = [4.0 / f.rate for t in kern.terms for f in t.factors if f.kind == "exp_abs"]
    for p in packets:
        sigma = getattr(p, "sigma", None)
        if sigma is None:
            scales.append((hi - lo) / 16)
            continue
        scales.append(2.0 * sigma)
        k0 = getattr(p, "k0", 0.0)
        if k0 != 0:
            scales.append(2.0 / abs(k0))
    return max(2.0 * min(scales), 4.0 * (hi - lo) / spec.max_subdivisions)


def kernel_pair(
    kern: DistributionalKernel,
    bra,
    ket,
    spec: QuadratureSpec = DEFAULT_SPEC,
    support=None,
):
    """<bra | K | ket> = int int conj(bra(x)) K(x, y) ket(y) dx dy.

    Dirac factors are integrated out analytically (one dimension removed
    per Dirac, with the proper Jacobian); what remains is integrated by
    composite Gauss-Legendre panels on the smooth cells between the
    factors' kink lines, halving the panels until two widths agree to
    ``spec``.  bra and ket must be bounded, vectorized, absolutely
    integrable and smooth on the support.
    """
    if kern.second_derivative_flag or kern.momentum_flag:
        raise DomainError(
            "kernel_pair handles multiplication-type kernels only; "
            "derivative parts are applied by the Hamiltonian module"
        )
    lo, hi = support if support is not None else _infer_support(bra, ket)
    h = _panel_width(kern, (bra, ket), lo, hi, spec)
    return _pair(kern, ((bra, ket),), lo, hi, h, spec)


def _pair(kern, products, lo, hi, h, spec):
    """Sum over (bra, ket) in products of <bra | K | ket> on [lo, hi]^2,
    with coarsest panel width h."""
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
        total += _pair_line(arg, shift, _TermArrays(terms), products, lo, hi, h, spec)
    regular = kern._regular()
    if regular.term_rows:
        total += _pair_plane(regular, products, lo, hi, h, spec)
    return total


def _weight(products, x, y):
    """sum over (bra, ket) of conj(bra(x)) ket(y)."""
    w = 0.0
    for bra, ket in products:
        w = w + np.conj(bra(x)) * ket(y)
    return w


def _pair_line(argument, shift, arrays, products, lo, hi, h, spec):
    """Pairing of terms sharing the Dirac factor delta(argument + shift).

    The line is parametrized by x when it is horizontal and by y
    otherwise; the parameter and the other coordinate both stay in the
    support, and the kink lines of the regular factors cut it into
    smooth segments.
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
    cuts = {t0, t1}
    for lx, ly, ls in arrays.lines:
        slope = lx * dx + ly * dy
        if slope != 0:
            cuts.add(-(lx * px + ly * py + ls) / slope)
    cuts = sorted(c for c in cuts if t0 <= c <= t1)

    def integrand(t):
        x, y = px + dx * t, py + dy * t
        return arrays(x, y) * _weight(products, x, y)

    return jac * integrate_panels(integrand, cuts, h, spec)


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


def _pair_plane(arrays, products, lo, hi, h, spec):
    """Pairing of the Dirac-free terms: tensor Gauss-Legendre on each
    cell, y mapped linearly between the cell's bounding lines."""
    panels = _plane_cells(arrays.lines, lo, hi, h)

    def rule(level):
        total = 0.0 + 0.0j
        for xa, xb, lower, upper, counts in panels:
            tx, wx = _unit_panels(_panel_count(xb - xa, h) << level)
            x, wx = xa + (xb - xa) * tx, (xb - xa) * wx
            parts = [_unit_panels(n << level) for n in counts]
            cell = np.repeat(np.arange(len(parts)), [len(t) for t, _ in parts])
            t = np.concatenate([t for t, _ in parts])
            wt = np.concatenate([w for _, w in parts])
            m0, b0 = lower[cell, 0], lower[cell, 1]
            dm, db = upper[cell, 0] - m0, upper[cell, 1] - b0
            rows = max(1, _BLOCK // len(t))
            for s in range(0, len(x), rows):
                xs = x[s:s + rows, None]
                span = dm * xs + db
                y = m0 * xs + b0 + span * t
                f = arrays(xs, y) * _weight(products, xs, y)
                total += np.sum((wx[s:s + rows, None] * span * wt) * f)
        return total

    outer = sum(_panel_count(xb - xa, h) for xa, xb, _, _, _ in panels)
    inner = max(sum(counts) for _, _, _, _, counts in panels)
    return _converge(rule, max(outer, inner), spec)


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
    doubles (so a listed 1/2 delta becomes the full delta).
    """
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
        second_derivative_flag=kern.second_derivative_flag,
        momentum_flag=kern.momentum_flag,
        terms=kern.terms + tuple(mirrored),
    )
