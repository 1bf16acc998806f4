"""Uniform-grid discretizations used by the matrix-level cross-checks.

A finite-difference double-delta Hamiltonian with Gaussian-regularized
point interactions, Nystrom sampling of distributional kernels, and the
pseudo-Hermiticity residual of the sampled first-order metric, measured
both in the Frobenius norm and weakly against smooth packets.  The X/P
commutator check samples x_kernel and p_kernel themselves.
"""

from __future__ import annotations

import numpy as np

from .hermitianize import GaussianPacket, p_kernel, x_kernel
from .kernels import _ARG_COEFFS, _factor_values, regular_part_grid
from .metric import eta1_bounded
from .model import Couplings

__all__ = [
    "uniform_grid",
    "gaussian_delta",
    "discretized_hamiltonian",
    "sampled_metric",
    "pseudo_hermiticity_residual",
    "weak_pseudo_hermiticity_residual",
]

_TEST_PACKETS = (
    GaussianPacket(1.5, 0.0, 0.0),
    GaussianPacket(2.0, 0.5, 0.3),
    GaussianPacket(1.0, 1.0, -0.5),
    GaussianPacket(2.5, -0.7, 1.0),
)
# the grid is [-_HALF_WIDTH, _HALF_WIDTH]; the residual checks use
# _GRID_POINTS points of it, the X/P commutator check _XP_GRID_POINTS
_HALF_WIDTH = 8.0
_GRID_POINTS = 400
_XP_GRID_POINTS = 600
# Gaussian widths of the regularized deltas in H and in P
_H_DELTA_WIDTH = 0.05
_P_DELTA_WIDTH = 0.1


def uniform_grid(n: int = _GRID_POINTS):
    """n equally spaced points on [-8, 8] and their spacing."""
    x = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n)
    return x, x[1] - x[0]


def gaussian_delta(t, width: float):
    """Regularized Dirac delta: Gaussian of standard deviation ``width``."""
    return np.exp(-(t * t) / (2 * width * width)) / (width * np.sqrt(2 * np.pi))


def discretized_hamiltonian(c: Couplings, x):
    """-d^2/dx^2 (three-point stencil) + complex deltas regularized as
    Gaussians of width 0.05."""
    n, h = len(x), x[1] - x[0]
    K = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    v = c.z_plus * gaussian_delta(x - c.a, _H_DELTA_WIDTH) + c.z_minus * gaussian_delta(
        x + c.a, _H_DELTA_WIDTH
    )
    return K.astype(complex) + np.diag(v)


def sampled_metric(c: Couplings, x):
    """eta = I + eta1 sampled: Nystrom matrix of the bounded first-order
    metric kernel on the grid (quadrature weight h per column)."""
    h = x[1] - x[0]
    kern = eta1_bounded(c)
    E1 = regular_part_grid(kern, x, x) * h
    return np.eye(len(x)) + E1


def pseudo_hermiticity_residual(c: Couplings):
    """Frobenius measure ||eta H - H^dag eta||_F / ||H||_F on the 400-point
    grid.

    Note: pointwise sampling of a kernel with sign/step discontinuities
    leaves lattice-artifact patterns whose Frobenius norm is linear in
    the coupling; see the weak variant for the O(z^2) statement.
    """
    _, H, R = _residual_operator(c)
    return np.linalg.norm(R) / np.linalg.norm(H)


def weak_pseudo_hermiticity_residual(c: Couplings):
    """max |<u|(eta H - H^dag eta)|v>| over a fixed family of smooth
    normalized packets: the weak-form realization of the first-order
    pseudo-Hermiticity relation, O(z^2) up to discretization."""
    x, _, R = _residual_operator(c)
    return _weak_norm(R, x)


def _operators(c):
    """The 400-point grid x, the discretized H and the sampled eta."""
    x, _ = uniform_grid()
    return x, discretized_hamiltonian(c, x), sampled_metric(c, x)


def _residual_operator(c):
    """Grid x, the discretized H and R = eta H - H^dag eta, formed as
    P - P^dag with P = eta H."""
    x, H, eta = _operators(c)
    P = eta @ H
    return x, H, P - P.conj().T


def _weak_norm(R, x):
    """max |<u|R|v>| over the normalized test packets u, v on the grid x."""
    V = np.stack([p(x) for p in _TEST_PACKETS], axis=1)
    V /= np.linalg.norm(V, axis=0)
    return np.abs(V.conj().T @ R @ V).max()


def rho_hermitization_weak_residual(c: Couplings):
    """Weak anti-Hermitian residual of rho H rho^{-1} with rho the
    principal square root of the sampled metric: O(z^2) realization of
    the similarity transform to the equivalent Hermitian operator."""
    x, H, eta = _operators(c)
    w, W = np.linalg.eigh(eta)  # eta is Hermitian: rho^{+-1} = W w^{+-1/2} W^dag
    s, Wh = np.sqrt(w), W.conj().T
    h = (W * s) @ Wh @ H @ (W / s) @ Wh
    return _weak_norm(h - h.conj().T, x)


def discretized_position(c: Couplings, x):
    """Pseudo-Hermitian position operator sampled on the grid."""
    h = x[1] - x[0]
    X1 = regular_part_grid(x_kernel(c), x, x) * h
    return np.diag(x.astype(complex)) + X1


def discretized_momentum(c: Couplings, x):
    """Pseudo-Hermitian momentum operator on the grid: central-difference
    -i d/dx plus p_kernel(c)'s first-order terms, their Dirac factors
    regularized as Gaussians of width 0.1 (for the weak commutator check)."""
    n = len(x)
    h = x[1] - x[0]
    D1 = (np.diag(np.full(n - 1, 1.0), 1) - np.diag(np.full(n - 1, 1.0), -1)) / (2 * h)
    P = -1j * D1.astype(complex)
    X, Y = x[:, None], x[None, :]
    for t in p_kernel(c).terms:
        v = t.coefficient
        for f in t.factors:
            cx, cy = _ARG_COEFFS[f.argument]
            u = cx * X + cy * Y + f.shift
            if f.kind == "dirac":
                v = v * gaussian_delta(u, _P_DELTA_WIDTH)
            else:
                v = v * _factor_values(f.kind, u, np.sign(u), f.rate)
        P = P + v * h
    return P


def xp_commutator_weak_residual(c: Couplings):
    """Weak measure of [X, P] - [x, p] on the 600-point grid.

    The zeroth-order discrete [x, p] is subtracted (its lattice form is a
    tridiagonal smoothing of i*identity), so what remains is the
    first-order cancellation [x, P1] + [X1, p], which is O(z^2) weakly.
    """
    x, _ = uniform_grid(_XP_GRID_POINTS)
    Xop = discretized_position(c, x)
    Pop = discretized_momentum(c, x)
    p0 = discretized_momentum(Couplings(0.0, 0.0, c.a), x)
    R = (Xop @ Pop - Pop @ Xop) - (x[:, None] - x[None, :]) * p0  # [x, p0]_ij
    return _weak_norm(R, x)
