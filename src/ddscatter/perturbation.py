"""Multi-parameter perturbative metric machinery on finite matrices.

H = H0 + sum_i z_i H_i with Hermitian H0, H_i and complex couplings z_i.
Solves the first- and second-order commutator equations for the Hermitian
generator Q of the metric eta = exp(-Q), builds the equivalent Hermitian
matrix, and maps observables into the pseudo-Hermitian representation.

Gauge: the diagonal of Q vanishes in the H0 eigenbasis at every order
(minimal choice; matches the identity metric in the Hermitian limit).

Cost: a diagonal H0 is its own eigenbasis, so no decomposition of it runs
and the basis changes and commutators with H0 are elementwise,
[H0, X]_ij = (E_i - E_j) X_ij.  A matrix whose imaginary part is exactly
zero is checked, stored, multiplied and decomposed as a real array: H0 and
the generators are kept real, and H1, its Hermitian and anti-Hermitian
parts and H0 + H1 are built once per instance, real when exactly real.
Every commutator, each of a Hermitian or anti-Hermitian matrix with a
Hermitian one, comes from one product.  eta and rho come from one eigh
of -(Q1 + Q2), which a QExpansion caches: QExpansion.eta and
conjugated_h read it.  Every public function still returns complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real

import numpy as np

from .errors import (
    DegeneracyError,
    DomainError,
    InconsistencyError,
    NonQuasiHermitianError,
)

__all__ = [
    "PerturbedOperator",
    "QExpansion",
    "solve_q1",
    "solve_q2",
    "equivalent_h",
    "conjugated_h",
    "map_observable",
    "eta_from_q",
]

_HERM_TOL = 1e-12
_GAP_TOL = 1e-8
_DIAG_TOL = 1e-10
_SOLVE_TOL = 1e-8


def _require_hermitian(M, name):
    """M as a float or complex array, real when exactly real; checked to
    be a finite, Hermitian, non-empty square matrix."""
    M = _real_if_exact(_float_or_complex(M))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    norm = np.linalg.norm(M)
    # a finite Frobenius norm implies finite entries
    if not np.isfinite(norm) and not np.isfinite(M).all():
        raise DomainError(f"{name} has non-finite entries")
    if np.linalg.norm(M - M.conj().T) > _HERM_TOL * max(1.0, norm):
        raise DomainError(f"{name} must be Hermitian")
    return M


@dataclass(frozen=True)
class PerturbedOperator:
    """H0 plus coupling-weighted Hermitian generators."""

    h0: np.ndarray
    generators: tuple
    couplings: tuple

    def __post_init__(self):
        h0 = _frozen(_require_hermitian(self.h0, "H0"), self.h0)
        object.__setattr__(self, "h0", h0)
        gens = tuple(_frozen(_require_hermitian(g, f"H_{i+1}"), g)
                     for i, g in enumerate(self.generators))
        if not gens:
            raise DomainError("at least one generator required")
        if len(gens) != len(self.couplings):
            raise DomainError("one coupling per generator required")
        for i, g in enumerate(gens):
            if g.shape != h0.shape:
                raise DomainError(f"H_{i+1} has shape {g.shape}, H0 has {h0.shape}")
        couplings = tuple(complex(z) for z in self.couplings)
        if not np.isfinite(couplings).all():
            raise DomainError("couplings must be finite")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "couplings", couplings)

    @cached_property
    def _eigenbasis(self):
        # (E, V) shared by the first- and second-order solves; V is None
        # when H0 is diagonal (off-diagonal zeros counted without a copy)
        h0 = self.h0
        if np.count_nonzero(h0) == np.count_nonzero(h0.diagonal()):
            return h0.diagonal().real.copy(), None
        return np.linalg.eigh(h0)

    @property
    def h0_eigh(self):
        """(E, V) of H0: for a diagonal H0 its diagonal and the identity."""
        E, V = self._eigenbasis
        return E, (np.eye(len(E)) if V is None else V)

    # H1 and its parts are built once, real when exactly real, and
    # read-only, since every caller of the instance shares them

    @cached_property
    def h1(self):
        return _frozen(sum(z * g for z, g in zip(self.couplings, self.generators)))

    @cached_property
    def h1_hermitian(self):
        return _frozen(sum(z.real * g for z, g in zip(self.couplings, self.generators)))

    @cached_property
    def h1_antihermitian(self):
        return _frozen(sum(1j * z.imag * g for z, g in zip(self.couplings, self.generators)))

    @cached_property
    def total(self):
        return _frozen(self.h0 + self.h1)


@dataclass(frozen=True)
class QExpansion:
    """First two orders of the Hermitian generator, diagonal-free in the
    H0 eigenbasis; checked, read-only and its own, so that the one eigh of
    -(Q1 + Q2), which eta and rho are read from, cannot go stale."""

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        for name in ("q1", "q2"):
            given = getattr(self, name)
            object.__setattr__(self, name, _frozen(_require_hermitian(given, name.upper()), given))
        if self.q2.shape != self.q1.shape:
            raise DomainError(f"Q2 has shape {self.q2.shape}, Q1 has {self.q1.shape}")

    @cached_property
    def _eigh(self):
        # (w, V); halving is exact, so rho's (w/2, V) is eigh(-(Q1 + Q2)/2) bit for bit
        q = self.q1 + self.q2
        return np.linalg.eigh(_real_if_exact(np.negative(q, out=q)))

    def eta(self) -> np.ndarray:
        """The metric exp(-Q1 - Q2) from the cached eigh, checked against
        its inverse; conjugated_h(p, self) reuses that decomposition."""
        return _metric(*self._eigh)


def _float_or_complex(M):
    """M as a float64 array when its dtype is real, else as complex128."""
    M = np.asarray(M)
    return np.asarray(M, dtype=float if M.dtype.kind in "biuf" else complex)


def _real_if_exact(M):
    """M, or its real part as a real array when its imaginary part is
    exactly zero: real products and eigh cost a quarter and a third of
    complex ones."""
    if np.iscomplexobj(M) and not M.imag.any():
        return np.ascontiguousarray(M.real)
    return M


def _frozen(M, given=None):
    """_real_if_exact(M), read-only; a copy when it may share memory with `given`."""
    M = _real_if_exact(M)
    if M is given or not M.flags.owndata:
        M = M.copy()
    M.flags.writeable = False
    return M


def _commutator_hermitian(A, B):
    """[A, B] for Hermitian A and B from one product: BA = (AB)^dag."""
    P = A @ B
    return P - P.conj().T


def _commutator_antihermitian(A, B):
    """[A, B] for anti-Hermitian A and Hermitian B: BA = -(AB)^dag."""
    P = A @ B
    return P + P.conj().T


def _h0_commutator(p, X):
    """[H0, X] for Hermitian X; (E_i - E_j) X_ij when H0 is diagonal."""
    E, V = p._eigenbasis
    if V is None:
        return (E[:, None] - E[None, :]) * X
    return _commutator_hermitian(p.h0, X)


def _to_eig(V, M):
    return M if V is None else V.conj().T @ M @ V


def _from_eig(V, M):
    return M if V is None else V @ M @ V.conj().T


def _solve_sylvester_diag(energies, rhs, coupling_tol):
    """Solve [diag(E), Q] = rhs for off-diagonal Q (diagonal gauged to 0).

    rhs is expressed in the H0 eigenbasis.  Raises DegeneracyError when a
    (near-)degenerate pair is actually coupled by rhs.
    """
    n = len(energies)
    gaps = energies[:, None] - energies[None, :]
    Q = np.zeros((n, n), dtype=rhs.dtype)
    off = ~np.eye(n, dtype=bool)
    small = np.abs(gaps) < _GAP_TOL
    coupled_degenerate = off & small & (np.abs(rhs) > coupling_tol)
    if np.any(coupled_degenerate):
        i, j = np.argwhere(coupled_degenerate)[0]
        raise DegeneracyError(
            f"levels {i} and {j} are degenerate (gap {abs(gaps[i, j]):.2e}) "
            "but coupled by the perturbation"
        )
    np.divide(rhs, gaps, out=Q, where=off & ~small)
    return Q


def solve_q1(p: PerturbedOperator) -> np.ndarray:
    """First-order generator: [H0, Q1] = -2 H1_antihermitian.

    In the H0 eigenbasis Q1_mn = -2 (H1_ah)_mn / (E_m - E_n) off the
    diagonal, zero on it.  Requires the anti-Hermitian diagonal to vanish
    (otherwise the spectrum is complex at first order and no metric
    exists).
    """
    E, V = p._eigenbasis
    h1_ah = p.h1_antihermitian
    A = _to_eig(V, h1_ah)
    scale = max(1.0, np.linalg.norm(A))
    if np.max(np.abs(np.diag(A))) > _DIAG_TOL * scale:
        raise NonQuasiHermitianError(
            "anti-Hermitian perturbation has nonzero diagonal in the H0 "
            "eigenbasis: complex first-order energies, not quasi-Hermitian"
        )
    Q1 = _from_eig(V, _solve_sylvester_diag(E, -2.0 * A, coupling_tol=_DIAG_TOL * scale))
    Q1 = 0.5 * (Q1 + Q1.conj().T)  # symmetrize roundoff
    resid = np.linalg.norm(_h0_commutator(p, Q1) + 2 * h1_ah)
    if resid > 1e-10 * max(1.0, np.linalg.norm(h1_ah)):
        raise InconsistencyError(f"first-order commutator residual {resid:.2e}")
    return np.asarray(Q1, dtype=complex)


def solve_q2(p: PerturbedOperator, q1: np.ndarray) -> np.ndarray:
    """Second-order generator: [H0, Q2] = R with

        R = -[H1, Q1] - (1/2) [[H0, Q1], Q1] = [Q1, H1_hermitian]

    for q1 = solve_q1(p): its [H0, Q1] = -2 H1_antihermitian cancels the
    anti-Hermitian part of -[H1, Q1].

    Solvable only when diag(R) vanishes in the H0 eigenbasis; a nonzero
    diagonal equals -2i Im(second-order energy shift) and signals
    breakdown of quasi-Hermiticity at second order.
    """
    q1 = _require_hermitian(q1, "Q1")
    R = _commutator_hermitian(q1, p.h1_hermitian)
    E, V = p._eigenbasis
    R_eig = _to_eig(V, R)
    scale = max(1.0, np.linalg.norm(R_eig))
    if np.max(np.abs(np.diag(R_eig))) > _SOLVE_TOL * scale:
        raise InconsistencyError(
            "second-order solvability violated: diag of R nonzero "
            "(quasi-Hermiticity breaks down at second order)"
        )
    Q2 = _from_eig(V, _solve_sylvester_diag(E, R_eig, coupling_tol=_SOLVE_TOL * scale))
    Q2 = 0.5 * (Q2 + Q2.conj().T)
    resid = np.linalg.norm(_h0_commutator(p, Q2) - R)
    if resid > 1e-10 * max(1.0, np.linalg.norm(R)):
        raise InconsistencyError(f"second-order commutator residual {resid:.2e}")
    return np.asarray(Q2, dtype=complex)


def equivalent_h(p: PerturbedOperator, q1: np.ndarray) -> np.ndarray:
    """Truncated equivalent Hermitian matrix

        h = H0 + H1_hermitian + (1/4)[H1_antihermitian, Q1],

    exactly Hermitian by construction (the commutator of an anti-Hermitian
    with a Hermitian matrix is P + P^dag with P = H1_antihermitian Q1)."""
    c = _commutator_antihermitian(p.h1_antihermitian, _real_if_exact(np.asarray(q1)))
    return np.asarray(p.h0 + p.h1_hermitian + 0.25 * c, dtype=complex)


def conjugated_h(p: PerturbedOperator, q: QExpansion) -> np.ndarray:
    """rho H rho^{-1} with rho = exp(-(Q1+Q2)/2): Hermitian up to O(z^3).

    This is the similarity-transform realization whose anti-Hermitian
    residual exhibits the cubic coupling scaling; the closed formula
    equivalent_h agrees with it to the same order.
    """
    rho, rho_inv = _exp_pair(*q._eigh, 0.5)
    h = rho @ p.total
    del rho  # release each factor once used: q already holds Q1, Q2 and V
    h = h @ rho_inv
    del rho_inv
    return np.asarray(h, dtype=complex)


def map_observable(o: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Pseudo-Hermitian image of a Hermitian observable:

        O = o - (1/2)([o, Q1] + [o, Q2] - (1/4)[[o, Q1], Q1]).

    Satisfies O^dag = eta O eta^{-1} to O(z^3) with eta = exp(-Q1-Q2).
    """
    o = _require_hermitian(o, "observable")
    q1, q2 = np.asarray(q1, dtype=complex), np.asarray(q2, dtype=complex)
    c1 = _commutator_hermitian(o, q1)  # anti-Hermitian
    c2 = _commutator_hermitian(o, q2)
    return o - 0.5 * (c1 + c2 - 0.25 * _commutator_antihermitian(c1, q1))


def _exp_pair(w, V, t=1.0):
    """(V e^{tw} V^dag, V e^{-tw} V^dag) for real w; V itself is not written."""
    w, Vh = t * w, V.conj().T
    VE = V * np.exp(w)
    exp_w = VE @ Vh
    np.multiply(V, np.exp(-w), out=VE)  # into VE: no third n x n temporary at the peak
    return exp_w, VE @ Vh


def _metric(w, V):
    """eta = V e^w V^dag, checked against its inverse."""
    eta, eta_inv = _exp_pair(w, V)
    check = np.linalg.norm(eta_inv @ eta - np.eye(len(w)))
    if check > 1e-10 * len(w):
        raise InconsistencyError(f"matrix exponential inversion residual {check:.2e}")
    return np.asarray(eta, dtype=complex)


def eta_from_q(q1: np.ndarray, q2: np.ndarray = None) -> np.ndarray:
    """Positive-definite metric eta = exp(-Q1 - Q2), Q2 = 0 when omitted."""
    if q2 is None:
        return _metric(*np.linalg.eigh(_real_if_exact(-_require_hermitian(q1, "Q1"))))
    # not QExpansion(q1, q2).eta(): the expansion's own copies of Q1 and Q2
    # are released here before _metric allocates, which lowers the peak
    return _metric(*QExpansion(q1, q2)._eigh)


# dense JSON wire format: a row-major list of n rows, each of n plain
# numbers (a real matrix) or of n [re, im] pairs (a complex one)


def matrix_to_json(M) -> list:
    """Rows of plain numbers when every imaginary part is +0.0 (bit for
    bit, so a -0.0 survives the round trip as a pair), else [re, im] pairs."""
    M = _float_or_complex(M)
    if M.dtype == complex and M.imag.view(np.uint64).any():
        M = np.ascontiguousarray(M)
        return M.view(float).reshape(M.shape + (2,)).tolist()
    return M.real.tolist()


def matrix_from_json(rows) -> np.ndarray:
    """A float array from rows of plain numbers, a complex one from rows
    of [re, im] pairs; bit for bit the matrix matrix_to_json wrote."""
    # the nesting and the number types are checked by passes of map and
    # the numbers read by one np.fromiter; np.array on the nested lists
    # is slower than all of them together
    try:
        n = len(rows)
        if set(map(len, rows)) == {n}:
            entries = list(chain.from_iterable(rows))
            if _all_real(entries):
                return np.fromiter(entries, float, count=n * n).reshape(n, n)
            values = list(chain.from_iterable(entries))
            if set(map(len, entries)) == {2} and _all_real(values):
                return np.fromiter(values, float, count=2 * n * n).view(complex).reshape(n, n)
    except (TypeError, OverflowError):
        pass
    raise DomainError("matrix must be n x n real numbers or n x n [re, im] pairs of real numbers")


def _all_real(values):
    return all(issubclass(t, Real) for t in set(map(type, values)))


def run_instance(payload: dict) -> dict:
    """Solve a JSON-described instance end to end.

    Input keys: "h0", "generators" (list of matrices), "couplings"
    (list of [re, im]).  Returns Q1, Q2, the equivalent Hermitian matrix,
    the metric, and the pseudo-Hermiticity residuals.
    """
    try:
        h0, generators = payload["h0"], tuple(payload["generators"])
        couplings = tuple(complex(re, im) for re, im in payload["couplings"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            'instance must be an object with "h0", "generators" (a list of matrices) '
            f'and "couplings" (a list of [re, im] pairs of real numbers): {exc!r}'
        ) from exc
    p = PerturbedOperator(
        matrix_from_json(h0), tuple(matrix_from_json(g) for g in generators), couplings
    )
    q1 = solve_q1(p)
    q2 = solve_q2(p, q1)
    h = equivalent_h(p, q1)
    q = QExpansion(q1, q2)
    eta = q.eta()
    P = eta @ p.total  # eta H - H^dag eta = P - P^dag for Hermitian eta
    hc = conjugated_h(p, q)
    return {
        "q1": matrix_to_json(q1),
        "q2": matrix_to_json(q2),
        "equivalent_h": matrix_to_json(h),
        "eta": matrix_to_json(eta),
        "pseudo_hermiticity_residual": float(np.linalg.norm(P - P.conj().T)),
        "conjugated_h_antihermitian_residual": float(np.linalg.norm(hc - hc.conj().T)),
    }
