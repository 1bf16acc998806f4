"""Spectral geography of the double-delta model.

Spectral singularities are real zeros of the transfer-matrix element
M_22 (zero-width resonances); bound states are its zeros in the upper
half k-plane, with energy E = k^2 (real iff k^2 is real).  Bound states
are counted and refined as zeros of H(k) = k M_22(k) = -F(k)/(4k), where
F(k) = (2ik - z_+)(2ik - z_-) - z_+ z_- e^{4iak} is entire with a simple
zero at k = 0: H is regular at k = 0 and has the same zeros as M_22 in
the open upper half plane, so contours near k = 0 see no pole.

Spectral singularities need no search window.  For real k,
|e^{4iak}| = 1, so every real zero of F is a root of
P(k) = |2ik - z_+|^2 |2ik - z_-|^2 - |z_+ z_-|^2.  P(0) = 0, and P(k)/(16k)
is the monic cubic k^3 + b k^2 + c k + d with b = -(y_+ + y_-),
c = (|z_+|^2 + |z_-|^2 + 4 y_+ y_-)/4 and d = -(y_+ |z_-|^2 + y_- |z_+|^2)/4,
y_+- = Im z_+-; in the PT-symmetric and antisymmetric modes it reduces
to k^2 = (y^2 - x^2)/2 for z_+ = x + iy.  Its roots, in closed form, seed
Newton on M_22.  Every Newton step reads M_22 and M_22' from one call of
model.m22_with_derivative; for H, H' = M_22 + k M_22'.  The contours
read model.m22 on arrays of k, Newton and the singularity residual on a
scalar k, which returns an np.complex128.

With sigma = z_+ + z_- and pi = z_+ z_-,
F(k) = -4k^2 - 2ik sigma + pi (1 - e^{4iak}) is affine in (sigma, pi):
couplings_with_zeros solves it backwards for couplings with prescribed
zeros, the oracle the searches below are tested against.

Bound states are searched in the square on the disc
|k| <= (|z_+| + |z_-|)/2, which holds every zero of F with Im k >= 0
(there |e^{4iak}| <= 1).  bound_state_roots counts them there by the
argument principle, locates them, and raises NoConvergenceError when the
roots located do not match the count; count_bound_states reads its roots.

Coupling-plane scans classify each grid cell and flag the
quasi-Hermitian region (no singularities, all bound-state energies
real).  A process pool spreads the cells only when asked (jobs != 1);
concurrent.futures is imported then, so a serial scan never loads it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ContourError, DdscatterError, DomainError, NoConvergenceError
from .model import Couplings, m22, m22_with_derivative
from .numerics import ComplexRect, count_zeros, refine_root

__all__ = [
    "ScanCell",
    "ScanMode",
    "find_spectral_singularities",
    "count_bound_states",
    "bound_state_roots",
    "couplings_with_zeros",
    "default_bound_rect",
    "scan_region",
]

K_MIN_CUT = 1e-3           # small-k exclusion: the 1/k enhancement is genuine
_SS_RESIDUAL_TOL = 1e-10   # |M22| at an accepted spectral singularity
_SS_IMAG_TOL = 1e-8        # |Im k| at an accepted spectral singularity
_REAL_ENERGY_TOL = 1e-8    # |Im k^2| for a bound state to count as real energy
_CUBE_ROOTS_OF_UNITY = (1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3))


@dataclass(frozen=True)
class ScanMode:
    """Map from figure-plane coordinates (r, s) to couplings.

    antisymmetric: z_+ = -z_- = (r + i s)/a
    pt_symmetric:  z_+ = (r + i s)/a, z_- = conj(z_+)
    general:       z_+ = (r + i s)/a, z_- fixed (z_minus_fixed)
    """

    mode: str
    z_minus_fixed: complex = 0.0

    def __post_init__(self):
        if self.mode not in ("antisymmetric", "pt_symmetric", "general"):
            raise DomainError(f"unknown scan mode {self.mode!r}")
        if not cmath.isfinite(self.z_minus_fixed):
            raise DomainError("z_minus_fixed must be finite")

    def couplings(self, r: float, s: float, a: float) -> Couplings:
        zp = complex(r, s) / a
        if self.mode == "antisymmetric":
            return Couplings(zp, -zp, a)
        if self.mode == "pt_symmetric":
            return Couplings(zp, np.conj(zp), a)
        return Couplings(zp, self.z_minus_fixed, a)


@dataclass
class ScanCell:
    r: float
    s: float
    n_bound: int = 0
    n_bound_real_energy: int = 0
    spectral_singularities: list = field(default_factory=list)
    quasi_hermitian: bool = False
    status: str = "ok"

    def finalize(self):
        self.quasi_hermitian = (
            not self.spectral_singularities
            and self.n_bound == self.n_bound_real_energy
            and self.status == "ok"
        )
        return self


def find_spectral_singularities(c: Couplings):
    """All real zeros of M_22 above K_MIN_CUT, sorted.

    Newton refinement is seeded from each root of _candidate_cubic with
    real part above K_MIN_CUT; a refined root is accepted only if
    |M_22| <= 1e-10 with |Im k| <= 1e-8.  Refinement failures are skipped.
    """
    fdf = lambda k: m22_with_derivative(c, k)
    roots = []
    for seed in _candidate_cubic(c):
        if seed.real <= K_MIN_CUT:
            continue
        try:
            root = refine_root(fdf, seed)
        except NoConvergenceError:
            continue
        if abs(root.imag) > _SS_IMAG_TOL:
            continue
        k = root.real
        if k <= K_MIN_CUT:
            continue
        if abs(m22(c, k)) > _SS_RESIDUAL_TOL:
            continue
        if all(abs(k - r) > 1e-6 * max(1.0, k) for r in roots):
            roots.append(k)
    return sorted(roots)


def _candidate_cubic(c: Couplings):
    """Roots of the module docstring's cubic P(k)/(16k), by Cardano's formula."""
    m = max(abs(c.z_plus), abs(c.z_minus)) or 1.0  # solve for k/m: no overflow at any |z|
    yp, sp = c.z_plus.imag / m, abs(c.z_plus / m) ** 2
    ym, sm = c.z_minus.imag / m, abs(c.z_minus / m) ** 2
    b = -(yp + ym)
    cc = (sp + sm + 4 * yp * ym) / 4
    d = -(yp * sm + ym * sp) / 4
    # k = t - b/3 gives t^3 + p t + q; the larger cube-root argument avoids cancellation
    p = cc - b * b / 3
    q = d + b * (2 * b * b - 9 * cc) / 27
    s = cmath.sqrt(q * q / 4 + p * p * p / 27)
    u = max(-q / 2 + s, -q / 2 - s, key=abs) ** (1 / 3)
    if u == 0:  # p = q = 0: the triple root -b/3
        return [complex(-m * b / 3)]
    return [m * (u * w - p / (3 * u * w) - b / 3) for w in _CUBE_ROOTS_OF_UNITY]


def default_bound_rect(c: Couplings) -> ComplexRect:
    """Upper-half-plane search window of the bound states.

    For Im k >= 0, |e^{4iak}| <= 1, so every zero of F there has
    |k| <= (|z_+| + |z_-|)/2; the window is the square on that disc with a
    25 % margin, its bottom edge clear of the essential point k = 0.  The
    floor 2 K_MIN_CUT only keeps the window non-degenerate at z = 0.
    """
    # Python floats: a sum past the float range is inf (ComplexRect rejects it), not a warning
    half = max(0.625 * (float(abs(c.z_plus)) + float(abs(c.z_minus))), 2 * K_MIN_CUT)
    return ComplexRect(-half, half, K_MIN_CUT, half)


def count_bound_states(c: Couplings):
    """(total, real_energy) bound-state counts: the roots bound_state_roots
    locates, and those of them with |Im(k^2)| <= 1e-8."""
    roots = bound_state_roots(c)
    return len(roots), sum(1 for k in roots if abs((k * k).imag) <= _REAL_ENERGY_TOL)


def bound_state_roots(c: Couplings):
    """Distinct zeros of M_22 in default_bound_rect(c), counted by the
    argument principle and located by recursive rectangle bisection plus
    Newton refinement, both applied to k M_22(k).  ContourError
    propagates; NoConvergenceError is raised when the zeros located do
    not match the count."""
    f = lambda k: k * m22(c, k)  # the bound-state function, free of the pole at k = 0

    def fdf(k):
        m, dm = m22_with_derivative(c, k)
        return k * m, m + k * dm

    step = np.pi / (8 * c.a)  # e^{4iak} turns by pi/2 over this step along an edge
    rect = default_bound_rect(c)
    total = count_zeros(f, rect, step)
    roots = []
    _isolate(f, fdf, step, rect, total, roots, depth=40)
    if len(roots) != total:
        raise NoConvergenceError(f"located {len(roots)} of {total} bound states")
    return roots


def _isolate(f, fdf, step, rect, n, out, depth):
    # f is counted on contours, fdf refines
    if n == 0:
        return
    center = complex(0.5 * (rect.re_min + rect.re_max), 0.5 * (rect.im_min + rect.im_max))
    if n == 1:
        try:
            root = refine_root(fdf, center)
        except NoConvergenceError:
            root = None
        # accept a refined root in (or hugging) the box; otherwise Newton
        # jumped out and the box must be narrowed first
        if root is not None and rect.contains(root):
            # a root already found from a neighbouring box is not added twice
            if all(abs(root - r) > 1e-8 * max(1.0, abs(root)) for r in out):
                out.append(root)
            return
    if depth <= 0:
        return
    for attempt in range(5):
        # split off-centre, by an amount that changes from try to try
        parts = rect.split(0.5 + 0.017 * ((depth * 5 + attempt) % 7 - 3))
        try:
            counts = [count_zeros(f, p, step) for p in parts]
        except ContourError:
            continue  # a zero sits on the split line: re-jitter
        if sum(counts) == n:
            for part, cnt in zip(parts, counts):
                _isolate(f, fdf, step, part, cnt, out, depth - 1)
            return


def couplings_with_zeros(ks, a, z_minus=None) -> Couplings:
    """Couplings whose M_22 vanishes at the prescribed wave numbers.

    F(k) = -4k^2 - 2ik sigma + pi (1 - e^{4iak}) = -4k^2 M_22(k) is affine
    in sigma = z_+ + z_- and pi = z_+ z_-, so one linear solve gives them:

    - one zero k, z_- given: F(k) = 0 is linear in z_+, and
      z_+ = 2ik (2ik - z_-)/((2ik - z_-) + z_- e^{4iak});
    - two zeros k_1, k_2: F(k_1) = 0 and the divided difference
      F[k_1, k_2] = -4(k_1 + k_2) - 2i sigma - pi E[k_1, k_2] = 0, with
      E[k_1, k_2] = e^{4iak_1} (e^{4ia(k_2 - k_1)} - 1)/(k_2 - k_1) formed
      without cancellation, give (sigma, pi).  A close pair is then as
      well posed as a distant one, and a repeated entry is the limit
      F(k) = F'(k) = 0, a double zero.  z_pm are the roots of
      t^2 - sigma t + pi, z_+ the one of larger modulus.

    Zeros in the upper half plane are bound states, real ones spectral
    singularities.  DomainError for a zero at k = 0 (F always vanishes
    there), a non-finite input, z_- given with two zeros or missing with
    one, and a singular solve.
    """
    ks = [complex(k) for k in ks]
    if len(ks) not in (1, 2) or not all(cmath.isfinite(k) and k != 0 for k in ks):
        raise DomainError("prescribe one or two finite nonzero wave numbers")
    if not (np.isfinite(a) and a > 0):
        raise DomainError("a must be positive and finite")
    if (z_minus is None) != (len(ks) == 2):
        raise DomainError("z_minus is given with one zero and only then")
    k1, k2 = ks[0], ks[-1]
    try:
        e1 = cmath.exp(4j * a * k1)
        if z_minus is not None:
            b = 2j * k1 - z_minus
            return Couplings(2j * k1 * b / (b + z_minus * e1), z_minus, a)
        h = k2 - k1
        x = 4j * a * h  # e^x - 1 by parts: expm1 of the modulus, 2 sin^2 of half the phase
        em1 = complex(
            math.expm1(x.real) * math.cos(x.imag) - 2 * math.sin(0.5 * x.imag) ** 2,
            math.exp(x.real) * math.sin(x.imag),
        )
        de = e1 * (em1 / h if h else 4j * a)
        # rows (sigma, pi) -> F(k_1) + 4 k_1^2 and F[k_1, k_2] + 4 (k_1 + k_2)
        p, q, r, s = -2j * k1, 1 - e1, -2j, -de
        u, v = 4 * k1 * k1, 4 * (k1 + k2)
        det = p * s - q * r
        sigma = (u * s - q * v) / det
        pi = (p * v - r * u) / det
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"no couplings with zeros at {ks}: {exc}") from None
    root = cmath.sqrt(sigma * sigma - 4 * pi)
    z_plus = 0.5 * max(sigma + root, sigma - root, key=abs)
    return Couplings(z_plus, pi / z_plus if z_plus else 0j, a)


def _scan_cell(args):
    mode, r, s, a = args
    cell = ScanCell(r=r, s=s)
    try:
        c = mode.couplings(r, s, a)
        cell.spectral_singularities = find_spectral_singularities(c)
        total, real_e = count_bound_states(c)
        cell.n_bound = total
        cell.n_bound_real_energy = real_e
    except DdscatterError as exc:  # per-cell failures recorded, scan continues
        cell.status = f"error: {type(exc).__name__}: {exc}"
    return cell.finalize()


def scan_region(
    mode: ScanMode,
    r_range,
    s_range,
    n: int,
    a: float = 1.0,
    jobs: int = 1,
):
    """Grid of ScanCell over the (r, s) plane, row-major in (s, r).

    Cells are independent; with jobs != 1 they are computed by a process
    pool and merged by index (jobs 0 or -1: one worker per core).
    Deterministic for given inputs.  n, a, jobs and the four range
    endpoints are checked before any cell runs (DomainError).
    """
    if not np.isfinite([*r_range, *s_range]).all():
        raise DomainError("r_range and s_range endpoints must be finite")
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise DomainError(f"grid size n must be an integer of at least 2, got {n!r}")
    if not (np.isfinite(a) and a > 0):
        raise DomainError("a must be positive and finite")
    if not (isinstance(jobs, numbers.Integral) and jobs >= -1):
        raise DomainError(f"jobs must be -1, 0 or a positive integer, got {jobs!r}")
    rs = np.linspace(r_range[0], r_range[1], n)
    ss = np.linspace(s_range[0], s_range[1], n)
    tasks = [(mode, r, s, a) for s in ss for r in rs]
    if jobs == 1:
        cells = [_scan_cell(t) for t in tasks]
    else:
        import concurrent.futures

        workers = None if jobs in (0, -1) else jobs
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            cells = list(ex.map(_scan_cell, tasks, chunksize=16))
    grid = np.empty((n, n), dtype=object)
    for idx, cell in enumerate(cells):
        grid[idx // n, idx % n] = cell  # [s_index, r_index]
    return grid
