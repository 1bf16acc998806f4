"""Independent oracles for the pair-kernels workload, in plain numpy.

The pairing reference uses tensor Gauss-Legendre quadrature in the
rotated coordinates u = x - y, v = x + y (dx dy = du dv / 2).  The
regular parts of eta1_bounded and x_kernel are products of a function
of u that is smooth on each side of u = 0 and the window
[theta(v + 2a) - theta(v - 2a)], so on the rectangles u < 0, u > 0 and
|v| < 2a the integrand is smooth and composite Gauss-Legendre converges
exponentially.  None of this calls into ddscatter.
"""

from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panels(lo, hi, n_panels):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    weights = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return nodes, weights


def gaussian(packet, x):
    """pi^{-1/4} sigma^{-1/2} exp(-(x-x0)^2 / 2 sigma^2 + i k0 x)."""
    sigma, k0, x0 = packet
    return np.pi ** (-0.25) / np.sqrt(sigma) * np.exp(
        -((x - x0) ** 2) / (2 * sigma**2) + 1j * k0 * x
    )


def _reach(bra, ket):
    """Half-width beyond which both packets are below exp(-128)."""
    return max(abs(bra[2]), abs(ket[2])) + 16 * max(bra[0], ket[0])


def overlap(bra, ket, weight=None):
    """int conj(bra(x)) weight(x) ket(x) dx over the real line."""
    r = _reach(bra, ket)
    x, w = _panels(-r, r, 64)
    f = np.conj(gaussian(bra, x)) * gaussian(ket, x)
    if weight is not None:
        f = f * weight(x)
    return complex(np.sum(w * f))


def windowed_pair(bra, ket, u_profile, a):
    """int int conj(bra(x)) u_profile(x - y) 1{|x + y| < 2a} ket(y) dx dy."""
    umax = 2 * (_reach(bra, ket) + 2 * a)
    v, wv = _panels(-2 * a, 2 * a, 8)
    total = 0.0 + 0.0j
    for lo, hi in ((-umax, 0.0), (0.0, umax)):
        u, wu = _panels(lo, hi, 64)
        profile = u_profile(u)
        # one v panel at a time, so the temporaries stay well below the
        # memory the measured program uses
        for start in range(0, len(v), len(_NODES)):
            vp = v[None, start : start + len(_NODES)]
            f = (
                np.conj(gaussian(bra, 0.5 * (vp + u[:, None])))
                * gaussian(ket, 0.5 * (vp - u[:, None]))
                * profile[:, None]
            )
            total += 0.5 * complex(wu @ f @ wv[start : start + len(_NODES)])
    return total


def eta1_pair(lam, a, bra, ket):
    """<bra| eta1 |ket> for eta1 = delta(x-y) + (i lam/2) sign(x-y) window."""
    return overlap(bra, ket) + windowed_pair(bra, ket, lambda u: 0.5j * lam * np.sign(u), a)


def x_pair(lam, a, bra, ket):
    """<bra| X |ket> for X = x delta(x-y) + (i lam/4) |x-y| window."""
    return overlap(bra, ket, weight=lambda x: x) + windowed_pair(
        bra, ket, lambda u: 0.25j * lam * np.abs(u), a
    )


def eta1_regular(lam, a, x, y):
    """Closed form of the eta1_bounded regular part, sign(0) = 0 and
    theta(0) = 1/2, with the window arguments formed as the package
    forms them (1.0 * x + 1.0 * y + shift)."""
    step = lambda u: 0.5 * (np.sign(u) + 1.0)
    s = np.sign(1.0 * x + -1.0 * y + 0.0)
    return 0.5j * lam * s * (step(1.0 * x + 1.0 * y + 2 * a) - step(1.0 * x + 1.0 * y + -2 * a))
