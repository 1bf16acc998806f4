"""Uniform-grid discretizations used by the matrix-level cross-checks.

A finite-difference double-delta Hamiltonian with Gaussian-regularized
point interactions, Nystrom sampling of distributional kernels, and the
pseudo-Hermiticity residual of the sampled first-order metric, measured
both in the Frobenius norm and weakly against smooth packets.  H is one
(diagonal, off-diagonal) pair: discretized_hamiltonian builds the dense
matrix from it, and the residuals apply it to eta as a three-point
stencil and take ||H||_F from it.  The X/P commutator check samples
x_kernel and p_kernel themselves, every regular factor through the
kernels evaluator (regular_part_grid), P's Dirac factors as Gaussians.
"""

from __future__ import annotations

import numpy as np

from .hermitianize import GaussianPacket, p_kernel, x_kernel
from .kernels import _ARG_COEFFS, DistributionalKernel, KernelTerm, regular_part_grid
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
    d, t = _hamiltonian_stencil(c, x)
    n = len(x)
    H = np.diag(np.asarray(d, dtype=complex))
    i = np.arange(n - 1)
    H[i, i + 1] = H[i + 1, i] = t
    return H


def _hamiltonian_stencil(c, x):
    """H's diagonal, 2/h^2 plus the regularized deltas, and its constant
    off-diagonal -1/h^2: the one description of the discretized H."""
    h = x[1] - x[0]
    v = c.z_plus * gaussian_delta(x - c.a, _H_DELTA_WIDTH) + c.z_minus * gaussian_delta(
        x + c.a, _H_DELTA_WIDTH
    )
    return 2 / h**2 + v, -1 / h**2


def sampled_metric(c: Couplings, x):
    """eta = I + eta1 sampled: Nystrom matrix of the bounded first-order
    metric kernel on the grid (quadrature weight h per column)."""
    h = x[1] - x[0]
    eta = regular_part_grid(eta1_bounded(c), x, x)
    eta *= h
    np.fill_diagonal(eta, eta.diagonal() + 1.0)
    return eta


def pseudo_hermiticity_residual(c: Couplings):
    """Frobenius measure ||eta H - H^dag eta||_F / ||H||_F on the 400-point
    grid.

    Note: pointwise sampling of a kernel with sign/step discontinuities
    leaves lattice-artifact patterns whose Frobenius norm is linear in
    the coupling; see the weak variant for the O(z^2) statement.
    """
    _, h_norm, P = _eta_h(c)
    return np.linalg.norm(P - P.conj().T) / h_norm


def weak_pseudo_hermiticity_residual(c: Couplings):
    """max |<u|(eta H - H^dag eta)|v>| over a fixed family of smooth
    normalized packets: the weak-form realization of the first-order
    pseudo-Hermiticity relation, O(z^2) up to discretization.

    eta H - H^dag eta = P - P^dag with P = eta H (eta is Hermitian), so
    the packet matrix elements are M - M^dag with M = V^dag P V."""
    x, _, P = _eta_h(c)
    V = _test_vectors(x)
    M = V.conj().T @ P @ V
    return np.abs(M - M.conj().T).max()


def _eta_h(c):
    """Grid x, ||H||_F and P = eta H on the 400-point grid, H applied as
    its three-point stencil: (eta H)_ij = eta_ij d_j + t (eta_i,j-1 +
    eta_i,j+1)."""
    x, _ = uniform_grid()
    d, t = _hamiltonian_stencil(c, x)
    eta = sampled_metric(c, x)
    P = eta * d
    P[:, 1:] += t * eta[:, :-1]
    P[:, :-1] += t * eta[:, 1:]
    h_norm = np.sqrt(np.vdot(d, d).real + 2 * (len(d) - 1) * t * t)
    return x, h_norm, P


def _test_vectors(x):
    """The test packets on the grid x, normalized, as columns."""
    V = np.stack([p(x) for p in _TEST_PACKETS], axis=1)
    V /= np.linalg.norm(V, axis=0)
    return V


def _weak_norm(R, x):
    """max |<u|R|v>| over the normalized test packets u, v on the grid x."""
    V = _test_vectors(x)
    return np.abs(V.conj().T @ R @ V).max()


def rho_hermitization_weak_residual(c: Couplings):
    """Weak anti-Hermitian residual of rho H rho^{-1} with rho the
    principal square root of the sampled metric: O(z^2) realization of
    the similarity transform to the equivalent Hermitian operator."""
    x, _ = uniform_grid()
    H, eta = discretized_hamiltonian(c, x), sampled_metric(c, x)
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
    -i d/dx plus p_kernel(c)'s first-order terms, each its regular part
    sampled by regular_part_grid times its Dirac factors regularized as
    Gaussians of width 0.1 (for the weak commutator check)."""
    n = len(x)
    h = x[1] - x[0]
    D1 = (np.diag(np.full(n - 1, 1.0), 1) - np.diag(np.full(n - 1, 1.0), -1)) / (2 * h)
    P = -1j * D1.astype(complex)
    X, Y = x[:, None], x[None, :]
    for t in p_kernel(c).terms:
        regular = DistributionalKernel(terms=(KernelTerm(t.coefficient, t.regular_factors),))
        v = regular_part_grid(regular, x, x)
        for f in t.dirac_factors:
            cx, cy = _ARG_COEFFS[f.argument]
            v = v * gaussian_delta(cx * X + cy * Y + f.shift, _P_DELTA_WIDTH)
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
