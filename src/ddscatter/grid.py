"""Uniform-grid discretizations used by the matrix-level cross-checks.

A finite-difference double-delta Hamiltonian with Gaussian-regularized
point interactions, Nystrom sampling of distributional kernels, and the
pseudo-Hermiticity residual of the sampled first-order metric, measured
both in the Frobenius norm and weakly against smooth packets.
"""

from __future__ import annotations

import numpy as np

from .hermitianize import GaussianPacket
from .kernels import regular_part_grid
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


def uniform_grid(n: int = 400, half_width: float = 8.0):
    x = np.linspace(-half_width, half_width, n)
    return x, x[1] - x[0]


def gaussian_delta(t, width: float):
    """Regularized Dirac delta: Gaussian of standard deviation ``width``."""
    return np.exp(-(t * t) / (2 * width * width)) / (width * np.sqrt(2 * np.pi))


def discretized_hamiltonian(c: Couplings, x, delta_width: float = 0.05):
    """-d^2/dx^2 (three-point stencil) + regularized complex deltas."""
    n = len(x)
    h = x[1] - x[0]
    K = (
        np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    ) / h**2
    v = c.z_plus * gaussian_delta(x - c.a, delta_width) + c.z_minus * gaussian_delta(
        x + c.a, delta_width
    )
    return K.astype(complex) + np.diag(v)


def sampled_metric(c: Couplings, x):
    """eta = I + eta1 sampled: Nystrom matrix of the bounded first-order
    metric kernel on the grid (quadrature weight h per column)."""
    h = x[1] - x[0]
    kern = eta1_bounded(c)
    E1 = regular_part_grid(kern, x, x) * h
    return np.eye(len(x)) + E1


def pseudo_hermiticity_residual(c: Couplings, n=400, half_width=8.0, delta_width=0.05):
    """Frobenius measure ||eta H - H^dag eta||_F / ||H||_F on the grid.

    Note: pointwise sampling of a kernel with sign/step discontinuities
    leaves lattice-artifact patterns whose Frobenius norm is linear in
    the coupling; see the weak variant for the O(z^2) statement.
    """
    _, H, R = _residual_operator(c, n, half_width, delta_width)
    return np.linalg.norm(R) / np.linalg.norm(H)


def weak_pseudo_hermiticity_residual(
    c: Couplings, n=400, half_width=8.0, delta_width=0.05, packets=_TEST_PACKETS
):
    """max |<u|(eta H - H^dag eta)|v>| over a fixed family of smooth
    normalized packets: the weak-form realization of the first-order
    pseudo-Hermiticity relation, O(z^2) up to discretization."""
    x, _, R = _residual_operator(c, n, half_width, delta_width)
    return _weak_norm(R, x, packets)


def _residual_operator(c, n, half_width, delta_width):
    """Grid x, the discretized H and R = eta H - H^dag eta with the
    sampled eta."""
    x, _ = uniform_grid(n, half_width)
    H = discretized_hamiltonian(c, x, delta_width)
    eta = sampled_metric(c, x)
    return x, H, eta @ H - H.conj().T @ eta


def _weak_norm(R, x, packets=_TEST_PACKETS):
    worst = 0.0
    vecs = []
    for p in packets:
        v = p(x)
        vecs.append(v / np.linalg.norm(v))
    for u in vecs:
        for v in vecs:
            worst = max(worst, abs(u.conj() @ R @ v))
    return worst


def rho_hermitization_weak_residual(c: Couplings, n=400, half_width=8.0, delta_width=0.05):
    """Weak anti-Hermitian residual of rho H rho^{-1} with rho the
    principal square root of the sampled metric: O(z^2) realization of
    the similarity transform to the equivalent Hermitian operator."""
    import scipy.linalg

    x, _ = uniform_grid(n, half_width)
    H = discretized_hamiltonian(c, x, delta_width)
    eta = sampled_metric(c, x)
    rho = scipy.linalg.sqrtm(eta)
    h = rho @ H @ np.linalg.inv(rho)
    return _weak_norm(h - h.conj().T, x)


def discretized_position(c: Couplings, x):
    """Pseudo-Hermitian position operator sampled on the grid."""
    from .hermitianize import x_kernel

    h = x[1] - x[0]
    X1 = regular_part_grid(x_kernel(c), x, x) * h
    return np.diag(x.astype(complex)) + X1


def discretized_momentum(c: Couplings, x, delta_width=0.1):
    """Pseudo-Hermitian momentum operator on the grid: central-difference
    -i d/dx plus the first-order antidiagonal Dirac terms regularized as
    narrow Gaussians (needed only for the weak commutator check)."""
    n = len(x)
    h = x[1] - x[0]
    D1 = (np.diag(np.full(n - 1, 1.0), 1) - np.diag(np.full(n - 1, 1.0), -1)) / (2 * h)
    P = -1j * D1.astype(complex)
    lam = c.z_plus.imag
    X, Y = np.meshgrid(x, x, indexing="ij")
    s = np.sign(X - Y)
    P1 = (lam / 2) * s * (
        gaussian_delta(X + Y + 2 * c.a, delta_width) - gaussian_delta(X + Y - 2 * c.a, delta_width)
    )
    return P + P1 * h


def xp_commutator_weak_residual(c: Couplings, n=600, half_width=8.0):
    """Weak measure of [X, P] - [x, p] on the grid.

    The zeroth-order discrete [x, p] is subtracted (its lattice form is a
    tridiagonal smoothing of i*identity), so what remains is the
    first-order cancellation [x, P1] + [X1, p], which is O(z^2) weakly.
    """
    x, _ = uniform_grid(n, half_width)
    Xop = discretized_position(c, x)
    Pop = discretized_momentum(c, x)
    x0 = np.diag(x.astype(complex))
    p0 = discretized_momentum(Couplings(0.0, 0.0, c.a), x)
    R = (Xop @ Pop - Pop @ Xop) - (x0 @ p0 - p0 @ x0)
    return _weak_norm(R, x)
