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
Newton on M_22.

Bound states are searched in a rectangle that covers the disc
|k| <= (|z_+| + |z_-|)/2, which holds every zero of F with Im k >= 0
(there |e^{4iak}| <= 1).  When the roots located in it do not match the
argument-principle count, count_bound_states raises NoConvergenceError.

Coupling-plane scans classify each grid cell and flag the
quasi-Hermitian region (no singularities, all bound-state energies
real).
"""

from __future__ import annotations

import cmath
import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .errors import ContourError, DdscatterError, DomainError, NoConvergenceError
from .model import Couplings, m22
from .numerics import ComplexRect, count_zeros, refine_root

__all__ = [
    "ScanCell",
    "ScanMode",
    "find_spectral_singularities",
    "count_bound_states",
    "bound_state_roots",
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
    f = lambda k: m22(c, k)
    roots = []
    for seed in _candidate_cubic(c):
        if seed.real <= K_MIN_CUT:
            continue
        try:
            root = refine_root(f, seed)
        except NoConvergenceError:
            continue
        if abs(root.imag) > _SS_IMAG_TOL:
            continue
        k = root.real
        if k <= K_MIN_CUT:
            continue
        if abs(f(k)) > _SS_RESIDUAL_TOL:
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
    """Default upper-half-plane search window.

    For Im k >= 0, |e^{4iak}| <= 1, so every zero of F there has
    |k| <= (|z_+| + |z_-|)/2; the window covers that disc with a 25 %
    margin.  Below the floors (3, 3|z|/a and 5) the disc sets neither
    side, and the bottom edge keeps clear of the essential point k = 0.
    """
    zmax = max(abs(c.z_plus), abs(c.z_minus), 1.0)
    disc = 1.25 * 0.5 * (abs(c.z_plus) + abs(c.z_minus))
    half = max(3.0, 3.0 * zmax / c.a, disc)
    return ComplexRect(-half, half, K_MIN_CUT, max(5.0, disc))


def count_bound_states(c: Couplings, rect: ComplexRect = None):
    """(total, real_energy) bound-state counts inside a UHP rectangle.

    total comes from the argument-principle count of the zeros of
    k M_22(k); real_energy from refining each isolated zero and testing
    |Im(k^2)| <= 1e-8.  ContourError propagates with a hint to perturb
    the rectangle; NoConvergenceError is raised when the zeros located do
    not match the count.
    """
    if rect is None:
        rect = default_bound_rect(c)
    if rect.im_min <= 0:
        raise DomainError("bound-state rectangle must lie in the open upper half plane")
    total = count_zeros(_regular_m22(c), rect, _max_step(c))
    if total == 0:
        return 0, 0
    roots = bound_state_roots(c, rect, expected=total)
    if len(roots) != total:
        raise NoConvergenceError(f"located {len(roots)} of {total} bound states")
    real_energy = sum(1 for k in roots if abs((k * k).imag) <= _REAL_ENERGY_TOL)
    return total, real_energy


def bound_state_roots(c: Couplings, rect: ComplexRect, expected: int = None):
    """Distinct zeros of M_22 inside rect, located by recursive rectangle
    bisection (argument principle) plus Newton refinement, both applied
    to k M_22(k)."""
    if expected is None:
        expected = count_zeros(_regular_m22(c), rect, _max_step(c))
    roots = []
    _isolate(c, rect, expected, roots, depth=40)
    return roots


def _regular_m22(c):
    """k -> k M_22(k): the bound-state function, free of the pole at k = 0."""
    return lambda k: k * m22(c, k)


def _max_step(c):
    """count_zeros' sample spacing for k M_22: e^{4iak} turns by pi/2
    over pi/(8a) along an edge."""
    return np.pi / (8 * c.a)


def _add_root(out, root):
    if all(abs(root - r) > 1e-8 * max(1.0, abs(root)) for r in out):
        out.append(root)


def _isolate(c, rect, n, out, depth):
    if n == 0:
        return
    f = _regular_m22(c)
    center = complex(0.5 * (rect.re_min + rect.re_max), 0.5 * (rect.im_min + rect.im_max))
    if n == 1:
        try:
            root = refine_root(f, center)
        except NoConvergenceError:
            root = None
        # accept a refined root in (or hugging) the box; otherwise Newton
        # jumped out and the box must be narrowed first
        if root is not None and rect.contains(root):
            _add_root(out, root)
            return
    if depth <= 0:
        return
    for attempt in range(5):
        # split off-centre, by an amount that changes from try to try
        parts = rect.split(0.5 + 0.017 * ((depth * 5 + attempt) % 7 - 3))
        try:
            counts = [count_zeros(f, p, _max_step(c)) for p in parts]
        except ContourError:
            continue  # a zero sits on the split line: re-jitter
        if sum(counts) == n:
            for part, cnt in zip(parts, counts):
                _isolate(c, part, cnt, out, depth - 1)
            return


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
    pool and merged by index.  Deterministic for given inputs.  n and a
    are checked before any cell runs (DomainError).
    """
    if n < 2:
        raise DomainError("grid size n must be at least 2")
    if not (np.isfinite(a) and a > 0):
        raise DomainError("a must be positive and finite")
    rs = np.linspace(r_range[0], r_range[1], n)
    ss = np.linspace(s_range[0], s_range[1], n)
    tasks = [(mode, r, s, a) for s in ss for r in rs]
    if jobs == 1:
        cells = [_scan_cell(t) for t in tasks]
    else:
        workers = None if jobs in (0, -1) else jobs
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            cells = list(ex.map(_scan_cell, tasks, chunksize=16))
    grid = np.empty((n, n), dtype=object)
    for idx, cell in enumerate(cells):
        grid[idx // n, idx % n] = cell  # [s_index, r_index]
    return grid
