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
zero is checked, stored and multiplied as a real array, and a complex one
is checked Hermitian in real arithmetic, on its real and imaginary parts.
H0 and the generators are kept real when exactly real; H1's Hermitian
and anti-Hermitian parts sum only the generators whose coupling has a
nonzero real or imaginary part, and i H_k is read as the real matrix
-Im H_k when H_k's real part is exactly zero.  Each part, H1 and H0 + H1
are built once per instance, real when exactly real.  Every commutator,
each of a Hermitian or anti-Hermitian matrix with a Hermitian one, comes
from one product.  Both orders are one gauged solve of [H0, Q] = source
(_solve_gauged).  Q itself is never decomposed: eta^{+-1} = exp(-+(Q1 +
Q2)) and rho^{+-1} = exp(-+(Q1 + Q2)/2) come from one Taylor polynomial,
scaled and squared (_exp_pair), whose products each compute the block
upper triangle of a Hermitian result.  Every public function still
returns complex arrays.
"""

from __future__ import annotations

import math
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
    "third_order_residuals",
]

_HERM_TOL = 1e-12
_GAP_TOL = 1e-8
_DIAG_TOL = 1e-10
_SOLVE_TOL = 1e-8


def _require_hermitian(M, name, shape=None):
    """M as a float or complex array, real when exactly real; checked to
    be a finite, Hermitian, non-empty square matrix, of `shape` when given."""
    M = _real_if_exact(_float_or_complex(M))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    _require_shape(M, shape, name)
    norm = np.linalg.norm(M)
    # a finite Frobenius norm implies finite entries
    if not np.isfinite(norm) and not np.isfinite(M).all():
        raise DomainError(f"{name} has non-finite entries")
    if np.iscomplexobj(M):
        # M - M^dag = (X - X^T) + i (Y + Y^T) for M = X + i Y
        X, Y = M.real, M.imag
        dev = math.hypot(np.linalg.norm(X - X.T), np.linalg.norm(Y + Y.T))
    else:
        dev = np.linalg.norm(M - M.T)
    if dev > _HERM_TOL * max(1.0, norm):
        raise DomainError(f"{name} must be Hermitian")
    return M


def _require_shape(M, shape, name):
    """The check that a matrix fits the instance it is used with."""
    if shape is not None and M.shape != shape:
        raise DomainError(f"{name} has shape {M.shape}, expected {shape}")


@dataclass(frozen=True)
class PerturbedOperator:
    """H0 plus Hermitian generators, each times its coupling."""

    h0: np.ndarray
    generators: tuple
    couplings: tuple

    def __post_init__(self):
        h0 = _frozen(_require_hermitian(self.h0, "H0"), self.h0)
        object.__setattr__(self, "h0", h0)
        gens = tuple(_frozen(_require_hermitian(g, f"H_{i+1}", h0.shape), g)
                     for i, g in enumerate(self.generators))
        if not gens:
            raise DomainError("at least one generator required")
        if len(gens) != len(self.couplings):
            raise DomainError("one coupling per generator required")
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
        return _frozen(self.h1_hermitian + self.h1_antihermitian)

    @cached_property
    def h1_hermitian(self):
        terms = [(z.real, g) for z, g in zip(self.couplings, self.generators)]
        return _frozen(_sum_of(terms, self.h0.shape))

    @cached_property
    def h1_antihermitian(self):
        # i Im(z) H_k; for an H_k = i Y with Y real, that is the real -Im(z) Y
        terms = [(-z.imag, g.imag) if _is_imaginary(g) else (1j * z.imag, g)
                 for z, g in zip(self.couplings, self.generators) if z.imag]
        return _frozen(_sum_of(terms, self.h0.shape))

    @cached_property
    def total(self):
        # H1 summed here, not read from self.h1, which it would keep
        return _frozen(self.h0 + (self.h1_hermitian + self.h1_antihermitian))


@dataclass(frozen=True)
class QExpansion:
    """First two orders of the Hermitian generator, diagonal-free in the
    H0 eigenbasis; checked, read-only and its own, so that eta and rho
    are read from the Q1 and Q2 it was built with."""

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        q1 = _frozen(_require_hermitian(self.q1, "Q1"), self.q1)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", _frozen(_require_hermitian(self.q2, "Q2", q1.shape), self.q2))

    def _exponent(self):
        """-(Q1 + Q2) as a new array, which _exp_pair may overwrite."""
        q = self.q1 + self.q2
        return np.negative(q, out=q)

    def eta(self) -> np.ndarray:
        """The metric exp(-Q1 - Q2), checked against its inverse."""
        return _metric(self._exponent())


def _sum_of(terms, shape):
    """The sum of w M over the (w, M) in `terms` whose factor w is nonzero,
    as a new array, real when every such term is real; a real zero matrix
    of `shape` when there is none."""
    total = None
    for w, M in terms:
        if w:
            term = w * M
            total = term if total is None else total + term
    return np.zeros(shape) if total is None else total


def _is_imaginary(M):
    """M is complex and its real part exactly zero."""
    return np.iscomplexobj(M) and not M.real.any()


def _float_or_complex(M):
    """M as a float64 array when its dtype is real, else as complex128."""
    M = np.asarray(M)
    return np.asarray(M, dtype=float if M.dtype.kind in "biuf" else complex)


def _real_if_exact(M):
    """M, or its real part as a real array when its imaginary part is
    exactly zero: a real product costs a quarter of a complex one."""
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


def _to_eig(V, M):
    return M if V is None else V.conj().T @ M @ V


def _from_eig(V, M):
    return M if V is None else V @ M @ V.conj().T


def _solve_sylvester_diag(gaps, rhs, coupling_tol):
    """Solve [diag(E), Q] = rhs for off-diagonal Q (diagonal gauged to 0),
    given gaps_ij = E_i - E_j.

    rhs is expressed in the H0 eigenbasis.  Raises DegeneracyError when a
    (near-)degenerate pair is actually coupled by rhs.
    """
    small = np.abs(gaps) < _GAP_TOL  # the diagonal among them
    if np.count_nonzero(small) > len(gaps):
        i, j = np.nonzero(small)
        off = i != j
        i, j = i[off], j[off]
        coupled = np.abs(rhs[i, j]) > coupling_tol
        if coupled.any():
            i, j = i[coupled][0], j[coupled][0]
            raise DegeneracyError(
                f"levels {i} and {j} are degenerate (gap {abs(gaps[i, j]):.2e}) "
                "but coupled by the perturbation"
            )
    Q = np.zeros_like(rhs)
    np.divide(rhs, gaps, out=Q, where=~small)
    return Q


def _solve_gauged(p, source, factor, tol, unsolvable, order):
    """Hermitian Q with [H0, Q] = factor * source, its diagonal zero in the
    H0 eigenbasis: the solve of both orders.

    Every bound scales with the norm of the (anti-)Hermitian source, not of
    factor * source.  Its diagonal above tol times its eigenbasis norm
    raises `unsolvable`, and a commutator residual above
    1e-10 max(1, ||source||) InconsistencyError.  A factor of 1 makes no copy.
    """
    E, V = p._eigenbasis
    S = _to_eig(V, source)
    scale = max(1.0, np.linalg.norm(S))
    if np.max(np.abs(np.diag(S))) > tol * scale:
        raise unsolvable
    gaps = E[:, None] - E[None, :]
    Q = _solve_sylvester_diag(gaps, S if factor == 1 else factor * S, coupling_tol=tol * scale)
    Q = _from_eig(V, Q)
    Q = 0.5 * (Q + Q.conj().T)  # symmetrize roundoff
    # [H0, Q], elementwise when H0 is diagonal
    comm = gaps * Q if V is None else _commutator_hermitian(p.h0, Q)
    del gaps
    resid = np.linalg.norm(comm - (source if factor == 1 else factor * source))
    if resid > 1e-10 * max(1.0, np.linalg.norm(source)):
        raise InconsistencyError(f"{order} commutator residual {resid:.2e}")
    return np.asarray(Q, dtype=complex)


def solve_q1(p: PerturbedOperator) -> np.ndarray:
    """First-order generator: [H0, Q1] = -2 H1_antihermitian.

    In the H0 eigenbasis Q1_mn = -2 (H1_ah)_mn / (E_m - E_n) off the
    diagonal, zero on it.  Requires the anti-Hermitian diagonal to vanish
    (otherwise the spectrum is complex at first order and no metric
    exists): NonQuasiHermitianError.
    """
    return _solve_gauged(
        p, p.h1_antihermitian, -2.0, _DIAG_TOL,
        NonQuasiHermitianError(
            "anti-Hermitian perturbation has nonzero diagonal in the H0 "
            "eigenbasis: complex first-order energies, not quasi-Hermitian"
        ),
        "first-order",
    )


def solve_q2(p: PerturbedOperator, q1: np.ndarray) -> np.ndarray:
    """Second-order generator: [H0, Q2] = R with

        R = -[H1, Q1] - (1/2) [[H0, Q1], Q1] = [Q1, H1_hermitian]

    for q1 = solve_q1(p): its [H0, Q1] = -2 H1_antihermitian cancels the
    anti-Hermitian part of -[H1, Q1].

    Solvable only when diag(R) vanishes in the H0 eigenbasis; a nonzero
    diagonal equals -2i Im(second-order energy shift) and signals
    breakdown of quasi-Hermiticity at second order: InconsistencyError.
    """
    q1 = _require_hermitian(q1, "Q1", p.h0.shape)
    return _solve_gauged(
        p, _commutator_hermitian(q1, p.h1_hermitian), 1, _SOLVE_TOL,
        InconsistencyError(
            "second-order solvability violated: diag of R nonzero "
            "(quasi-Hermiticity breaks down at second order)"
        ),
        "second-order",
    )


def equivalent_h(p: PerturbedOperator, q1: np.ndarray) -> np.ndarray:
    """Truncated equivalent Hermitian matrix

        h = H0 + H1_hermitian + (1/4)[H1_antihermitian, Q1],

    exactly Hermitian by construction (the commutator of an anti-Hermitian
    with a Hermitian matrix is P + P^dag with P = H1_antihermitian Q1)."""
    q1 = _require_hermitian(q1, "Q1", p.h0.shape)
    c = _commutator_antihermitian(p.h1_antihermitian, q1)
    return np.asarray(p.h0 + p.h1_hermitian + 0.25 * c, dtype=complex)


def conjugated_h(p: PerturbedOperator, q: QExpansion) -> np.ndarray:
    """rho H rho^{-1} with rho = exp(-(Q1+Q2)/2): Hermitian up to O(z^3).

    This is the similarity-transform realization whose anti-Hermitian
    residual exhibits the cubic coupling scaling; the closed formula
    equivalent_h agrees with it to the same order.
    """
    _require_shape(q.q1, p.h0.shape, "Q")
    A = q._exponent()
    A *= 0.5
    rho, rho_inv = _exp_pair(A)
    del A
    h = rho @ p.total
    del rho  # release each factor once used
    h = h @ rho_inv
    del rho_inv
    return np.asarray(h, dtype=complex)


def map_observable(o: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Pseudo-Hermitian image of a Hermitian observable:

        O = o - (1/2)([o, Q1] + [o, Q2] - (1/4)[[o, Q1], Q1]).

    Satisfies O^dag = eta O eta^{-1} to O(z^3) with eta = exp(-Q1-Q2).
    """
    o = _require_hermitian(o, "observable")
    q1 = _require_hermitian(q1, "Q1", o.shape)
    q2 = _require_hermitian(q2, "Q2", o.shape)
    c1 = _commutator_hermitian(o, q1)  # anti-Hermitian
    c2 = _commutator_hermitian(o, q2)
    return np.asarray(o - 0.5 * (c1 + c2 - 0.25 * _commutator_antihermitian(c1, q1)), dtype=complex)


# The exponentials: the degree-12 Taylor polynomial of e^B, split as
# E + O with E = sum_j C^j / (2j)! and O = B sum_j C^j / (2j+1)! in C = B^2
_EVEN = tuple(1 / math.factorial(2 * j) for j in range(7))
_ODD = tuple(1 / math.factorial(2 * j + 1) for j in range(6))
# the largest ||B|| at which that polynomial's relative backward error
# stays within 2^-53 (see _exp_pair)
_THETA_12 = 0.2996
# rows per block of an in-place product, whose temporaries are blocks
_BLOCK_ROWS = 96


def _exp_pair(A):
    """(e^A, e^-A) for a Hermitian A.  A is overwritten, and its memory
    may come back as one of the pair.

    Scaling and squaring of a Taylor polynomial (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31 (2009) 970).  s is the smallest s >= 0 that puts
    B = A / 2^s within ||B||_1 <= theta_12 = 0.2996: there the degree-12
    Taylor polynomial T is e^(B + dB) with ||dB|| <= 2^-53 ||B||, theta_12
    being where sum_{k>12} |c_k| theta^(k-1) = 2^-53 for the series
    log(e^-x T(x)) = sum_{k>12} c_k x^k.  T(+-B) = E +- O, with the even part
    E = sum_{j<=6} C^j / (2j)! and the odd part O = B sum_{j<=5} C^j / (2j+1)!
    in C = B^2, both by Paterson & Stockmeyer (SIAM J. Comput. 2 (1973) 60)
    in C and C^2: seven products, two per part after C and C^2, and B times
    the odd sum.  A third power C^3 would save one product and cost a
    fourth n x n array.  Then e^(+-A) = (E +- O)^(2^s).  For rho = e^(A/2),
    A halved first: the same B as eta's whenever eta needs a squaring, so
    that eta = rho^2 then.  A zero A gives the identity exactly.

    A holds B and then O; C, C^2 and one working array are the only n x n
    arrays made before the pair.  Every product is of two commuting
    Hermitian matrices and runs in _update, in place where its result
    overwrites a factor, and the squarings rotate through three arrays.
    """
    s = 0
    norm = np.linalg.norm(A, 1)
    while norm > _THETA_12 * 2.0**s:
        s += 1
    B = A
    if s:
        B *= 0.5**s
    C = _update(np.empty_like(B), B, B, 0.0)
    C2 = _update(np.empty_like(B), C, C, 0.0)
    e, o = _EVEN, _ODD
    W = np.empty_like(C)
    # odd sum (o0 + o1 C) + C^2 [(o2 + o3 C) + C^2 (o4 + o5 C)], then O into B
    _update(W, None, None, o[4], (o[5], C))
    _update(W, W, C2, o[2], (o[3], C))
    _update(W, W, C2, o[0], (o[1], C))
    _update(B, B, W, 0.0)
    # E = (e0 + e1 C) + C^2 [(e2 + e3 C) + C^2 (e4 + e5 C + e6 C^2)] into W
    _update(W, None, None, e[4], (e[5], C), (e[6], C2))
    _update(W, W, C2, e[2], (e[3], C))
    _update(W, W, C2, e[0], (e[1], C))
    del C2
    np.subtract(W, B, out=C)
    W += B
    plus, minus, spare = W, C, B
    for _ in range(s):
        plus, spare = _update(spare, plus, plus, 0.0), plus
        minus, spare = _update(spare, minus, minus, 0.0), minus
    return plus, minus


def _update(out, X, M, c0, *terms):
    """out <- X M + c0 I + sum of c T over the (c, T) in `terms`, without
    the product when X is None; returns out.

    X, M and every T are Hermitian polynomials in one matrix, so they
    commute and the result is Hermitian: only its block upper triangle is
    computed, a block of rows at a time, and mirrored into the lower one,
    5/8 of a full product's work at n = 384 and toward 1/2 for larger n.
    out may be X: row block i of X M reads row block i of X only, so the
    only temporary is one block."""
    n = len(out)
    for i in range(0, n, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        upper = out[rows, i:]
        upper[...] = 0.0 if X is None else X[rows] @ M[:, i:]
        for c, T in terms:
            upper += c * T[rows, i:]
        out[rows, :i] = out[:i, rows].conj().T
    if c0:
        np.fill_diagonal(out, out.diagonal() + c0)
    return out


def _metric(A):
    """eta = e^A for A = -Q, checked against its inverse; A is overwritten."""
    n = len(A)
    eta, eta_inv = _exp_pair(A)
    check = eta_inv @ eta
    del eta_inv
    np.fill_diagonal(check, check.diagonal() - 1.0)
    resid = np.linalg.norm(check)
    if not resid <= 1e-10 * n:
        raise InconsistencyError(f"matrix exponential inversion residual {resid:.2e}")
    del check
    return np.asarray(eta, dtype=complex)


def eta_from_q(q1: np.ndarray, q2: np.ndarray = None) -> np.ndarray:
    """Positive-definite metric eta = exp(-Q1 - Q2), Q2 = 0 when omitted."""
    if q2 is None:
        return _metric(np.negative(_require_hermitian(q1, "Q1")))
    # not QExpansion(q1, q2).eta(): the expansion's own copies of Q1 and Q2
    # are released here before _metric allocates, which lowers the peak
    return _metric(QExpansion(q1, q2)._exponent())


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
    eta_resid, h_resid = third_order_residuals(p, q, eta)
    return {
        "q1": matrix_to_json(q1),
        "q2": matrix_to_json(q2),
        "equivalent_h": matrix_to_json(h),
        "eta": matrix_to_json(eta),
        "pseudo_hermiticity_residual": eta_resid,
        "conjugated_h_antihermitian_residual": h_resid,
    }


def third_order_residuals(p: PerturbedOperator, q: QExpansion, eta: np.ndarray):
    """(||eta H - H^dag eta||, ||hc - hc^dag||) as floats, with eta =
    q.eta() and hc = conjugated_h(p, q): the two residuals of the
    expansion, both O(z^3)."""
    P = eta @ p.total  # eta H - H^dag eta = P - P^dag for Hermitian eta
    eta_resid = float(np.linalg.norm(P - P.conj().T))
    del P
    hc = conjugated_h(p, q)
    return eta_resid, float(np.linalg.norm(hc - hc.conj().T))
