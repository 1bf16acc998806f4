"""Named verification suites behind the ``verify`` CLI command.

Each check is a small self-contained validation of one documented
invariant, returning (passed, detail).  ``CHECKS`` is the one place each
named invariant is asserted: ``tests/test_verify.py`` runs every entry as
its own test id, and the acceptance criteria run theirs by name, so a
new invariant is added here rather than as a hand-written test.  The fast
level finishes in well under a minute and skips the 2D-quadrature and
spectral-integral oracles; the full level runs everything.

The grid-level Frobenius pseudo-Hermiticity check is reported but does
not gate the exit status: pointwise sampling of a discontinuous kernel
carries coupling-linear lattice artifacts in the Frobenius norm, so only
its weak-form counterpart is a meaningful pass/fail statement (see the
acceptance suite and README for the full story).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import grid as gridmod
from . import hermitianize as herm
from . import metric as metricmod
from . import model as modelmod
from . import numerics as num
from . import perturbation as pert
from . import spectrum as spec
from .errors import DomainError
from .kernels import kernel_eval
from .model import Couplings, ScatteringBranch
from .numerics import ComplexRect

FAST, FULL = "fast", "full"


# ---------------------------------------------------------------- numerics


def check_inv_sqrt():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
        M = num.matrix_inv_sqrt(K)
        worst = max(worst, np.linalg.norm(M @ M @ K - np.eye(2)))
    return worst <= 1e-12, f"worst ||MMK-I|| {worst:.2e}"


def check_count_zeros_additivity():
    counts = []
    for root, rect in (
        (0.4 + 0.3j, ComplexRect(-1.0, 2.3, 0.1, 2.7)),
        (0.3 + 0.4j, ComplexRect(-1.0, 2.2, 0.1, 2.6)),
    ):
        f = lambda k, r=root: (k - (1 + 1j)) * (k - r) * (k * k + 4)
        a, b = rect.split()
        counts.append((num.count_zeros(f, rect), num.count_zeros(f, a) + num.count_zeros(f, b)))
    ok = all(total == parts == 3 for total, parts in counts)
    return ok, "; ".join(f"total {t}, split sum {s}" for t, s in counts)


# closed forms of the I_{n,m} family against quadrature; the per-point
# helpers below also back the parametrised per-point tests
INM_TOL = 1e-8
I22_ALPHAS = (0.0, 0.5, 1.0, 3.0)


def i22_error(alpha):
    """|closed form - quadrature| of I_{2,2}(alpha), quadrature taken
    directly on the rational Fourier integrand (not via inm_quadrature)."""
    closed = metricmod.inm(2, 2, alpha)[1]
    quad = num.integrate_1d(
        lambda k: np.exp(1j * k * alpha) / (1 + k * k) ** 2 / (2 * np.pi),
        -np.inf,
        np.inf,
    )
    return abs(closed - quad)


def check_i22_quadrature():
    worst = max(i22_error(alpha) for alpha in I22_ALPHAS)
    return worst <= INM_TOL, f"worst {worst:.2e}"


# ------------------------------------------------------------------- model


def check_k_matrix_identities():
    rng = np.random.default_rng(3)
    worst_h = worst_t = 0.0
    for _ in range(100):
        c = Couplings(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            float(rng.uniform(0.3, 2.5)),
        )
        k = float(rng.uniform(0.2, 4.0))
        K = modelmod.k_matrix(c, k)
        Kc = modelmod.k_matrix(c.conjugate(), k)
        worst_h = max(worst_h, np.abs(Kc.conj().T - K).max())
        worst_t = max(worst_t, abs(K[1, 0] - _k12_direct(c, -k)))
    ok = worst_h <= 1e-12 and worst_t <= 1e-12
    return ok, f"K-dagger identity {worst_h:.2e}, K21(k)=K12(-k) {worst_t:.2e}"


def _k12_direct(c, k):
    # independent transcription of the off-diagonal overlap entry
    zp, zm, a = c.z_plus, c.z_minus, c.a
    return (
        1j * zm * (2 * k - 1j * zm) * np.exp(2j * a * k)
        - 1j * zp * (2 * k + 1j * zp) * np.exp(-2j * a * k)
    ) / (4 * k * k)


def check_psi_continuity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        c = Couplings(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()),
            float(rng.uniform(0.4, 2.0)),
        )
        s = ScatteringBranch(int(rng.integers(1, 3)), float(rng.uniform(0.2, 3.0)))
        for edge in (-c.a, c.a):
            lo = modelmod.psi_eval(c, s, edge - 1e-10)
            hi = modelmod.psi_eval(c, s, edge + 1e-10)
            worst = max(worst, abs(hi - lo))
    return worst <= 1e-9, f"worst jump {worst:.2e} across x = +-a +- 1e-10"


def check_transfer_asymptotics():
    # random couplings at one real and one complex (Im k in [0, 0.5]) wave
    # number each, plus the real antisymmetric point z = 0.3 at k = 1
    rng = np.random.default_rng(13)
    cases = [(Couplings(0.3, -0.3, 1.0), 1.0)]
    for _ in range(50):
        c = Couplings(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()),
            float(rng.uniform(0.4, 2.0)),
        )
        cases.append((c, float(rng.uniform(0.3, 3.0))))
        cases.append((c, complex(rng.uniform(0.3, 3.0), rng.uniform(0.0, 0.5))))
    worst_det = worst_asym = 0.0
    for c, k in cases:
        M = modelmod.transfer_matrix(c, k)
        worst_det = max(worst_det, abs(np.linalg.det(M) - 1))
        # amplitudes of psi_1 to the left and right of the wells
        al = 1 + 1j * c.z_minus / (2 * k)
        bl = -1j * c.z_minus / (2 * k) * np.exp(-2j * k * c.a)
        ar = 1 - 1j * c.z_plus / (2 * k)
        br = 1j * c.z_plus / (2 * k) * np.exp(2j * k * c.a)
        out = M @ np.array([al, bl])
        worst_asym = max(worst_asym, abs(out[0] - ar), abs(out[1] - br))
    ok = worst_det <= 1e-12 and worst_asym <= 1e-10
    return ok, f"det {worst_det:.2e}, asymptotics {worst_asym:.2e}"


def check_hermitian_limit_psi():
    d = 0.0
    for c, s, n in (
        (Couplings(0.7, -0.4, 1.3), ScatteringBranch(1, 0.9), 41),
        (Couplings(0.5, -0.8, 1.2), ScatteringBranch(1, 0.7), 9),
    ):
        xs = np.linspace(-4, 4, n)
        diff = modelmod.psi_eval(c, s, xs) - modelmod.psi_eval(c.conjugate(), s, xs)
        d = max(d, np.max(np.abs(diff)))
    return d == 0.0, f"max diff {d:.2e}"


def check_conjugate_eigenfunction():
    # for real k and x, conj(psi_{1,k}) of the model is psi_{2,k} of the
    # conjugated model: the one map z_pm -> conj(z_pm) builds that family
    rng = np.random.default_rng(41)
    xs = np.linspace(-4, 4, 50)
    worst = 0.0
    for _ in range(200):
        c = Couplings(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()),
            float(rng.uniform(0.3, 2.5)),
        )
        k = float(rng.uniform(0.2, 4.0))
        want = np.conj(modelmod.psi_eval(c, ScatteringBranch(1, k), xs))
        got = modelmod.psi_eval(c.conjugate(), ScatteringBranch(2, k), xs)
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return worst <= 1e-13, f"worst relative diff {worst:.2e} (<=1e-13) over 200 couplings"


# ------------------------------------------------------------------ metric


def check_sign_identity():
    rng = np.random.default_rng(17)
    u = rng.normal(size=10**6)
    v = rng.normal(size=10**6)
    # include single zeros and exact cancellations
    u[:1000] = 0.0
    v[1000:2000] = 0.0
    v[2000:3000] = -u[2000:3000]
    lhs = np.sign(u + v) * (np.sign(u) + np.sign(v))
    rhs = 1 + np.sign(u) * np.sign(v)
    bad = int(np.sum(lhs != rhs))
    return bad == 0, f"sign identity exact on 1e6 pairs: {bad} violations"


def check_eta_form_equivalence():
    # one-sided first-order term in its raw and step-function forms
    rng = np.random.default_rng(19)
    a = 1.0
    xs = rng.uniform(-4, 4, 200)
    ys = rng.uniform(-4, 4, 200)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    th = modelmod.theta
    d = 0.0
    for z in (0.37 + 0.1j, 0.41 + 0.13j, 0.37 + 0.21j):
        raw = (z / 4) * (np.sign(X + Y - 2 * a) - np.sign(X - Y)) * th(Y - a)
        stepped = (z / 8) * (np.sign(X + Y - 2 * a) + 1) - (z / 4) * np.sign(X - Y) * th(
            X + Y - 2 * a
        )
        d = max(d, np.max(np.abs(raw - stepped)))
    return d == 0.0, f"form equivalence on a 200x200 grid: max diff {d:.2e}"


def check_eta1_spot_values():
    # exact values with the step-function conventions; (3, 4) and (-3, -4)
    # lie outside the band
    vals = [
        (0.1, 0.5, -0.7, 0.05j),
        (0.1, 3.0, 4.0, 0.0),
        (0.1, -0.9, 0.4, -0.05j),
        (0.2, 0.5, -0.7, 0.1j),
        (0.2, 3.0, 4.0, 0.0),
        (0.2, -3.0, -4.0, 0.0),
    ]
    worst = max(
        abs(kernel_eval(metricmod.eta1_bounded(Couplings(1j * lam, -1j * lam, 1.0)), x, y) - v)
        for lam, x, y, v in vals
    )
    return worst == 0.0, f"worst {worst:.2e} (exact)"


def check_eta1_symmetries():
    # a purely imaginary, exactly antisymmetric regular part is Hermitian;
    # |eta1| <= |Im z_+|/2 everywhere
    rng = np.random.default_rng(23)
    broken = 0
    worst_excess = -np.inf
    for c, samples in (
        (Couplings(0.23 + 0.2j, 0.4 - 0.2j, 1.0), 500),
        (Couplings(0.6 + 0.2j, 0.3 - 0.2j, 1.0), 300),
        (Couplings(0.37j, -0.37j, 1.0), 2000),
    ):
        kern = metricmod.eta1_bounded(c)
        sup = 0.0
        for x, y in rng.uniform(-5, 5, (samples, 2)):
            v = kernel_eval(kern, x, y)
            broken += v != -kernel_eval(kern, y, x) or v.real != 0.0
            sup = max(sup, abs(v))
        worst_excess = max(worst_excess, sup - abs(c.z_plus.imag) / 2)
    ok = broken == 0 and worst_excess <= 1e-12
    return ok, (
        f"{broken} samples not exactly antisymmetric and imaginary, "
        f"sup - |Im z|/2 = {worst_excess:.2e}"
    )


INM_POINTS = {
    "n": (0, 1, 2),
    "m": (1, 2, 3),
    "alpha": (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0),
}


def inm_error(n, m, alpha):
    """(|closed - quadrature| of I[n,m]'s regular part, whether its delta
    part is right: 1 for (0,1), 0 otherwise)."""
    delta, closed = metricmod.inm(n, m, alpha)
    quad = metricmod.inm_quadrature(n, m, alpha)
    return abs(closed - quad), delta == (1.0 if (n, m) == (0, 1) else 0.0)


def check_inm_closed_forms():
    errors = [
        inm_error(n, m, alpha)
        for n in INM_POINTS["n"]
        for m in INM_POINTS["m"]
        for alpha in INM_POINTS["alpha"]
    ]
    worst = max(err for err, _ in errors)
    bad_delta = sum(not delta_ok for _, delta_ok in errors)
    ok = worst <= INM_TOL and bad_delta == 0
    return ok, f"I[n,m] worst {worst:.2e} (<={INM_TOL:g}), {bad_delta} wrong delta parts"


def check_u_route():
    worst = 0.0
    for c in (Couplings(0.05j, 0.05j, 1.0), Couplings(0.1, 0.2, 1.0), Couplings(0.2 + 0.1j, -0.1 + 0.05j, 0.7)):
        U = metricmod.u_inverse_sqrt_route(c, 1.0)
        K = modelmod.k_matrix(c, 1.0)
        Uc = metricmod.u_inverse_sqrt_route(c.conjugate(), 1.0)
        worst = max(worst, np.linalg.norm(Uc.conj().T @ K @ U - np.eye(2)))
    return worst <= 1e-10, f"worst residual {worst:.2e}"


def check_appendixA_structure():
    # Hermitian limit (eps = 0): a real surviving tail, so not the identity
    center = np.inf
    worst_imag = 0.0
    for rm, gamma in ((1.0, 1.0), (0.8, 1.1)):
        p = metricmod.AppendixAParams(1.0, rm, 0.0, 0.0, gamma, 1.0)
        v = kernel_eval(metricmod.eta1_appendixA(p), 0.0, 0.3)
        center = min(center, abs(v))
        worst_imag = max(worst_imag, abs(v.imag))
    rng = np.random.default_rng(29)
    worst = 0.0
    for p in (
        metricmod.AppendixAParams(1.0, 0.8, 0.1, 0.07, 1.1, 1.0),
        metricmod.AppendixAParams(1.0, 1.0, 0.1, 0.1, 1.0, 1.0),
    ):
        kern = metricmod.eta1_appendixA(p)
        for x, y in rng.uniform(-4, 4, (300, 2)):
            worst = max(worst, abs(kernel_eval(kern, x, y) - np.conj(kernel_eval(kern, y, x))))
    ok = center > 1e-2 and worst_imag < 1e-15 and worst < 1e-15
    return ok, (
        f"Hermitian-limit magnitude {center:.3f} (not identity), imaginary part "
        f"{worst_imag:.1e}, hermiticity {worst:.1e}"
    )


def check_appendixA_spectral_oracle():
    # pairing against a gaussian packet must match the defining weighted
    # spectral integral; exact at eps = 0, O(eps^2) at finite eps
    from .kernels import kernel_pair

    g = herm.GaussianPacket(1.0, 0.4, 0.1)
    worst0 = worst1 = 0.0
    for eps, tol_slot in (((0.0, 0.0), 0), ((0.1, 0.1), 1)):
        p = metricmod.AppendixAParams(1.0, 0.8, eps[0], eps[1], 1.1, 1.0)
        kern = metricmod.eta1_appendixA(p)
        lhs = kernel_pair(kern, g, g)
        rhs = metricmod.appendixA_weighted_overlap(p, g)
        d = abs(lhs - rhs)
        if tol_slot == 0:
            worst0 = max(worst0, d)
        else:
            worst1 = max(worst1, d)
    ok = worst0 <= 1e-6 and worst1 <= 5e-3
    return ok, f"eps=0 diff {worst0:.2e} (<=1e-6), eps=0.1 diff {worst1:.2e} (<=5e-3)"


def check_spectral_estimate():
    c = Couplings(0.1j, -0.1j, 1.0)
    kern = metricmod.eta1_bounded(c)
    pts = [
        (0.5, -0.7), (2.0, 1.4), (-3.0, 0.6), (0.9, -0.9), (1.8, -0.4),
        (-1.3, 0.5), (2.6, 3.2), (-0.6, -0.8), (0.3, 1.2), (-2.2, -1.4),
    ]
    worst = 0.0
    for x, y in pts:
        est = metricmod.spectral_metric_estimate(c, x, y)
        worst = max(worst, abs(est - kernel_eval(kern, x, y)))
    detail = f"spectral estimate vs kernel worst {worst:.2e} (<=5e-3) at {len(pts)} points"
    return worst <= 5e-3, detail


def check_metric_de_scaling():
    bra = herm.GaussianPacket(1.3, 0.4, 0.2)
    ket = herm.GaussianPacket(1.1, -0.3, -0.4)
    r = []
    for lam in (0.1, 0.05):
        c = Couplings(1j * lam, -1j * lam, 1.0)
        r.append(abs(metricmod.metric_de_residual(metricmod.eta1_bounded(c), c, bra, ket)))
    factor = r[0] / r[1]
    # real coupling parts leave the residual at second order
    r_re = []
    for scale in (1.0, 0.5):
        c_re = Couplings((0.2 + 0.1j) * scale, (0.15 - 0.1j) * scale, 1.0)
        r_re.append(abs(metricmod.metric_de_residual(metricmod.eta1_bounded(c_re), c_re, bra, ket)))
    factor_re = r_re[0] / r_re[1]
    ok = factor >= 3.0 and r[0] <= 9e-4 and factor_re >= 3.0 and r_re[0] <= 1e-2
    return ok, (
        f"halving factor {factor:.2f}, |res| {r[0]:.2e}; with Re parts: "
        f"factor {factor_re:.2f}, |res| {r_re[0]:.2e}"
    )


# ------------------------------------------------------------ hermitianize


def check_h_kernel_structure():
    from .kernels import kernel_pair

    c = Couplings(0.3 + 0.2j, -0.3 - 0.2j, 1.0)
    kern = herm.h_kernel(c)

    def windows(k):
        return sorted(t.coefficient.real for t in k.terms if len(t.dirac_factors) == 1)

    # nonlocal window terms are identical regardless of the real parts
    win1 = windows(kern)
    same_nonlocal = all(
        np.allclose(win1, windows(herm.h_kernel(c2)), rtol=0, atol=1e-16)
        for c2 in (Couplings(0.1 + 0.2j, 0.7 - 0.2j, 1.0), Couplings(0.25 + 0.2j, 0.4 - 0.2j, 1.0))
    )
    lam2 = c.z_plus.imag ** 2
    magnitudes_ok = np.allclose(np.abs(win1), lam2 / 8, rtol=0, atol=1e-16)
    # Hermitian symmetry of the window part via pairings
    from .kernels import DistributionalKernel

    nl = DistributionalKernel(
        terms=tuple(t for t in kern.terms if len(t.dirac_factors) == 1)
    )
    u = herm.GaussianPacket(1.2, 0.5, 0.3)
    v = herm.GaussianPacket(0.9, -0.2, -0.6)
    uv = kernel_pair(nl, u, v)
    vu = kernel_pair(nl, v, u)
    herm_ok = abs(uv - np.conj(vu)) <= 1e-10
    ok = bool(same_nonlocal and magnitudes_ok and herm_ok)
    return ok, (
        f"windows Re-independent {same_nonlocal}, |coef|=Im^2/8 {magnitudes_ok}, "
        f"pairing hermiticity {abs(uv - np.conj(vu)):.2e}"
    )


def _energy_points(full):
    """(c, packet, moving) over the energy checks' grid: the moving packets
    (sigma, k, 0) and the shifted ones (sigma, 0, x0)."""
    sigmas = (0.5, 1.0, 1.5, 3.0) if full else (1.0, 1.5)
    ks = (0.0, 0.5, 1.0, 2.0) if full else (0.0, 1.0)
    x0s = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0) if full else (0.0, -1.0)
    for lam in (0.1, 0.2):
        c = Couplings(0.3 + 1j * lam, -0.3 - 1j * lam, 1.0)
        for s in sigmas:
            yield from ((c, herm.GaussianPacket(s, k, 0.0), True) for k in ks)
            yield from ((c, herm.GaussianPacket(s, 0.0, x0), False) for x0 in x0s)


def check_u_w_profiles():
    ks = [*np.linspace(-3, 3, 121), 0.3, 1.1, 2.7]
    u_even = max(abs(herm.u_fn(1.0, 1.4, k) - herm.u_fn(1.0, 1.4, -k)) for k in ks)
    sx = [(2.1, x) for x in np.linspace(-5, 5, 101)]
    sx += [(s, x) for s in (0.4, 1.5, 5.0) for x in (0.3, 1.4, 3.3)]
    w_even = max(abs(herm.w_fn(1.0, s, x) - herm.w_fn(1.0, s, -x)) for s, x in sx)
    # U, W and V are parts of energy_gaussian's energy, with lambda = Im z_+
    # and r = Re z_+ = -Re z_-: the worst deviation of each over |total|
    dev = dict.fromkeys("UWV", 0.0)
    for c, g, moving in _energy_points(full=True):
        e, a, s, lam2 = herm.energy_gaussian(c, g), c.a, g.sigma, c.z_plus.imag ** 2
        if moving:
            diffs = {"U": lam2 * herm.u_fn(a, s, g.k0) / math.sqrt(8) - e.nonlocal_part}
        else:
            diffs = {"W": lam2 * herm.w_fn(a, s, g.x0) / math.sqrt(32) - e.nonlocal_part,
                     "V": c.z_plus.real * herm.v_fn(a, s, g.x0) / (s * math.sqrt(math.pi))
                     - e.local_potential}
        for name, d in diffs.items():
            dev[name] = max(dev[name], abs(d) / abs(e.total))
    ok = u_even <= 1e-12 and w_even <= 1e-10 and max(dev.values()) <= 1e-12
    parts = ", ".join(f"{k} {v:.1e}" for k, v in dev.items())
    return ok, (f"U evenness {u_even:.2e}, W parity {w_even:.2e}; "
                f"energy_gaussian parts {parts} (<=1e-12 |total|)")


def check_energy_closed_vs_oracle(full=False):
    worst = 0.0
    for c, g, _ in _energy_points(full):
        eq = herm.energy_quadrature(c, g)
        worst = max(worst, abs(herm.energy_gaussian(c, g).total - eq.total) / abs(eq.total))
    return worst <= 1e-6, f"closed vs quadrature worst rel {worst:.2e} (<=1e-6)"


def check_pt_insensitivity():
    # nonlocal energy depends on Re parts not at all (at this order)
    worst = 0.0
    for s, k in ((1.0, 0.3), (1.5, 0.0), (2.5, 1.0)):
        g = herm.GaussianPacket(s, k, 0.0)
        e1 = herm.energy_gaussian(Couplings(0.4 + 0.2j, -0.1 - 0.2j, 1.0), g)
        e2 = herm.energy_gaussian(Couplings(-0.3 + 0.2j, 0.6 - 0.2j, 1.0), g)
        worst = max(worst, abs(e1.nonlocal_part - e2.nonlocal_part))
    return worst <= 1e-12, f"worst nonlocal shift {worst:.2e}"


def _halving_factor(residual):
    """residual(z_+- = +-0.1i) / residual(+-0.05i), a = 1: 4 if O(z^2), 2 if O(z)."""
    return residual(Couplings(0.1j, -0.1j, 1.0)) / residual(Couplings(0.05j, -0.05j, 1.0))


def check_xp_commutator():
    factor = _halving_factor(gridmod.xp_commutator_weak_residual)
    return factor >= 3.0, f"halving factor {factor:.2f} (O(z^2) weak residual)"


def check_rho_hermitization():
    # rho H rho^{-1}, rho = sqrt(sampled metric), is Hermitian up to O(z^2) weakly
    factor = _halving_factor(gridmod.rho_hermitization_weak_residual)
    return factor >= 3.0, f"halving factor {factor:.2f} (O(z^2) weak residual)"


# ------------------------------------------------------------ perturbation


def _solvable(rng, levels, z):
    # real symmetric Hermitian part, imaginary-antisymmetric anti-Hermitian
    # part, both diagonal-free in the H0 eigenbasis
    n = len(levels)
    A = rng.normal(size=(n, n))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0)
    B = rng.normal(size=(n, n))
    T = 1j * (B - B.T) / 2
    return pert.PerturbedOperator(np.diag(levels), (S, T), (z, 1j * z))


def solvable_instance(n, z, seed):
    """Random instance in the quasi-Hermitian-compatible class, with H0
    levels near 0, 1, ..., n-1 so the residual constants stay tame."""
    rng = np.random.default_rng(seed)
    return _solvable(rng, np.arange(n) + 0.3 * rng.uniform(-1, 1, n), z)


def _ungapped_instance(n, z, seed):
    # the same class with standard-normal H0 levels, which may lie close
    rng = np.random.default_rng(seed)
    return _solvable(rng, np.sort(rng.normal(size=n)), z)


def check_perturbation_scalings():
    # halving z shrinks both third-order residuals ~8x; on the gapped
    # instances the Hermiticity residual also stays below 1e-4 ||H0||
    def resid(p):
        q1 = pert.solve_q1(p)
        q2 = pert.solve_q2(p, q1)
        q = pert.QExpansion(q1, q2)  # one eigh of -(Q1 + Q2) serves rho and eta
        return pert.third_order_residuals(p, q, q.eta())

    fh = fe = np.inf
    rel = 0.0
    for make, seed in (
        (_ungapped_instance, 31),
        (solvable_instance, 27),
        (solvable_instance, 34),
        (solvable_instance, 77),
    ):
        p = make(6, 1e-2, seed)
        e1, h1 = resid(p)
        e2, h2 = resid(make(6, 5e-3, seed))
        fh, fe = min(fh, h1 / h2), min(fe, e1 / e2)
        if make is solvable_instance:
            rel = max(rel, h1 / np.linalg.norm(p.h0))
    ok = fh >= 6.0 and fe >= 6.0 and rel <= 1e-4
    return ok, (
        f"h-residual halving factor {fh:.2f}, eta-residual {fe:.2f} (>=6, expect ~8), "
        f"h-residual/||H0|| {rel:.1e} (<=1e-4)"
    )


def check_perturbation_identities():
    d1 = d2 = 0.0
    for p in (
        _ungapped_instance(6, 1e-2, 37),
        solvable_instance(6, 1e-2, 29),
        solvable_instance(6, 1e-2, 30),
    ):
        q1 = pert.solve_q1(p)
        h = pert.equivalent_h(p, q1)
        lhs = h - (p.h0 + p.h1_hermitian)
        rhs = 0.25 * (p.h1_antihermitian @ q1 - q1 @ p.h1_antihermitian)
        d1 = max(d1, np.linalg.norm(lhs - rhs))
        # -1/8 [[H0,Q1],Q1] equals 1/4 [H_ah, Q1] given the first-order relation
        c0 = p.h0 @ q1 - q1 @ p.h0
        lhs2 = -0.125 * (c0 @ q1 - q1 @ c0)
        d2 = max(d2, np.linalg.norm(lhs2 - rhs))
    ok = d1 <= 1e-12 and d2 <= 1e-12
    return ok, f"first-order identity {d1:.2e}, two-forms identity {d2:.2e}"


# ---------------------------------------------------------------- spectrum


def check_hermitian_row():
    for r in (0.3, -0.8, 1.5, 2.0):
        c = Couplings(r, -r, 1.0)
        ss = spec.find_spectral_singularities(c)
        if ss:
            return False, f"real coupling {r} produced singularities {ss}"
        total, real_e = spec.count_bound_states(c)
        if total != real_e:
            return False, f"real coupling {r}: complex bound-state energies"
    return True, "no singularities, all bound energies real"


def check_region_claims():
    c = Couplings(0.3, -0.3, 1.0)
    total, real_e = spec.count_bound_states(c)
    ci = Couplings(0.3j, -0.3j, 1.0)
    ss = spec.find_spectral_singularities(ci)
    ti, _ = spec.count_bound_states(ci)
    ok = (total, real_e) == (1, 1) and ss == [] and ti == 0
    return ok, (
        f"z=0.3: ({total},{real_e}) bound states (expect (1,1)); "
        f"z=0.3i: {ti} bound, {len(ss)} singularities (expect 0,0)"
    )


def check_singularity_no_window():
    # antisymmetric z = i 27 pi/(2 sqrt2): one singularity, at k = 27 pi/4 ~ 21.2,
    # above any k window a sampling search would need to fix in advance
    z = 1j * 27 * np.pi / (2 * np.sqrt(2))
    ss = spec.find_spectral_singularities(Couplings(z, -z, 1.0))
    want = 27 * np.pi / 4
    ok = len(ss) == 1 and abs(ss[0] - want) <= 1e-10
    return ok, f"singularities {ss} at default arguments (expect [27 pi/4 = {want!r}] to 1e-10)"


def check_prescribed_zeros():
    # single zeros from couplings_with_zeros, located by bound_state_roots;
    # PT points on the singularity curve x = -k cot 2ak,
    # y = k sqrt(1 + sin^2 2ak)/|sin 2ak|, returned by find_spectral_singularities
    rng = np.random.default_rng(31)
    worst_bound = worst_ss = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        k = complex(rng.uniform(-6.0, 6.0), rng.uniform(0.05, 6.0))
        z_minus = complex(*rng.uniform(-8.0, 8.0, 2))
        roots = spec.bound_state_roots(spec.couplings_with_zeros([k], a, z_minus))
        worst_bound = max(worst_bound, min(abs(r - k) for r in roots) / abs(k))
    curve = 0
    while curve < 10:
        a, k = rng.uniform(0.5, 2.0), rng.uniform(0.05, 6.0)
        sin = math.sin(2 * a * k)
        if abs(sin) < 0.1:
            continue
        x, y = -k * math.cos(2 * a * k) / sin, k * math.sqrt(1 + sin * sin) / abs(sin)
        found = spec.find_spectral_singularities(Couplings(complex(x, y), complex(x, -y), a))
        worst_ss = max(worst_ss, min((abs(r - k) / k for r in found), default=math.inf))
        curve += 1
    ok = worst_bound <= 1e-8 and worst_ss <= 1e-8
    return ok, (
        f"20 prescribed bound states: worst relative miss {worst_bound:.1e}; "
        f"10 PT curve points: worst {worst_ss:.1e} (both <= 1e-8)"
    )


def check_grid_pseudo_hermiticity_weak():
    factor = _halving_factor(gridmod.weak_pseudo_hermiticity_residual)
    return factor >= 3.0, f"halving factor {factor:.2f} (>=3, weak form)"


def check_grid_pseudo_hermiticity_frobenius():
    # informational: the Frobenius norm of the sampled-kernel residual is
    # coupling-linear (lattice artifacts), so the factor sits at 2
    factor = _halving_factor(gridmod.pseudo_hermiticity_residual)
    return True, f"halving factor {factor:.3f} (reported, non-gating; see README)"


def check_smeared_overlap():
    c = Couplings(0.1j, 0.1j, 1.0)
    K = modelmod.k_matrix(c, 1.0)
    vals = []
    for w in (0.1, 0.05, 0.025):
        vals.append(modelmod.smeared_overlap_check(c, 1.0, 1.0, w))
    # Richardson in width (linear model)
    extrap = vals[2] + (vals[2] - vals[1])
    d = np.abs(extrap - K).max()
    far = np.abs(modelmod.smeared_overlap_check(c, 1.0, 1.5, 0.05)).max()
    # the free overlap is the identity up to O(width)
    free = np.abs(
        modelmod.smeared_overlap_check(Couplings(0.0, 0.0, 1.0), 1.0, 1.0, 0.05) - np.eye(2)
    ).max()
    ok = d <= 1e-3 and far <= 1e-3 and free < 0.06
    return ok, f"extrapolated diff {d:.2e}, far-separated max {far:.2e}, free {free:.2e}"


def check_fig1_symmetry():
    mode = spec.ScanMode("antisymmetric")
    for r, s in ((0.4, 1.2), (1.1, 2.0)):
        up = spec.count_bound_states(mode.couplings(r, s, 1.0))
        dn = spec.count_bound_states(mode.couplings(r, -s, 1.0))
        if up != dn:
            return False, f"(r,s)=({r},{s}) counts {up} vs {dn}"
        ss_up = spec.find_spectral_singularities(mode.couplings(r, s, 1.0))
        ss_dn = spec.find_spectral_singularities(mode.couplings(r, -s, 1.0))
        if len(ss_up) != len(ss_dn) or not np.allclose(ss_up, ss_dn, atol=1e-6):
            return False, f"singularity sets differ at (r,{s})"
    return True, "spectrum symmetric under s -> -s"


CHECKS = {
    "numerics.matrix_inv_sqrt": (FAST, check_inv_sqrt),
    "numerics.count_zeros_additivity": (FAST, check_count_zeros_additivity),
    "numerics.i22_quadrature": (FAST, check_i22_quadrature),
    "model.k_matrix_identities": (FAST, check_k_matrix_identities),
    "model.psi_continuity": (FAST, check_psi_continuity),
    "model.transfer_asymptotics": (FAST, check_transfer_asymptotics),
    "model.hermitian_limit": (FAST, check_hermitian_limit_psi),
    "model.conjugate_eigenfunction": (FAST, check_conjugate_eigenfunction),
    "metric.sign_identity": (FAST, check_sign_identity),
    "metric.form_equivalence": (FAST, check_eta_form_equivalence),
    "metric.eta1_spot_values": (FAST, check_eta1_spot_values),
    "metric.eta1_symmetries": (FAST, check_eta1_symmetries),
    "metric.inm_closed_forms": (FAST, check_inm_closed_forms),
    "metric.u_inverse_sqrt_route": (FAST, check_u_route),
    "metric.appendixA_structure": (FAST, check_appendixA_structure),
    "hermitianize.h_kernel_structure": (FAST, check_h_kernel_structure),
    "hermitianize.u_w_profiles": (FAST, check_u_w_profiles),
    "hermitianize.energy_closed_vs_oracle": (FAST, check_energy_closed_vs_oracle),
    "hermitianize.pt_insensitivity": (FAST, check_pt_insensitivity),
    "perturbation.scalings": (FAST, check_perturbation_scalings),
    "perturbation.identities": (FAST, check_perturbation_identities),
    "spectrum.hermitian_row": (FAST, check_hermitian_row),
    "spectrum.region_claims": (FAST, check_region_claims),
    "spectrum.singularity_no_window": (FAST, check_singularity_no_window),
    "metric.appendixA_spectral_oracle": (FULL, check_appendixA_spectral_oracle),
    "metric.spectral_estimate": (FULL, check_spectral_estimate),
    "metric.de_residual_scaling": (FULL, check_metric_de_scaling),
    "metric.grid_pseudo_hermiticity_weak": (FULL, check_grid_pseudo_hermiticity_weak),
    "metric.grid_pseudo_hermiticity_frobenius": (FULL, check_grid_pseudo_hermiticity_frobenius),
    "hermitianize.energy_full_grid": (FULL, lambda: check_energy_closed_vs_oracle(full=True)),
    "hermitianize.xp_commutator": (FULL, check_xp_commutator),
    "hermitianize.rho_hermitization": (FULL, check_rho_hermitization),
    "model.smeared_overlap": (FULL, check_smeared_overlap),
    "spectrum.fig1_symmetry": (FULL, check_fig1_symmetry),
    "spectrum.prescribed_zeros": (FULL, check_prescribed_zeros),
}


def run_verify(level: str = "fast"):
    """Run the named suites; returns (all_passed, report dict)."""
    if level not in (FAST, FULL):
        raise DomainError("level must be 'fast' or 'full'")
    report = {"level": level, "checks": []}
    all_ok = True
    for name, (check_level, fn) in CHECKS.items():
        if level == FAST and check_level == FULL:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        report["checks"].append(
            {"name": name, "passed": bool(ok), "detail": detail, "seconds": round(dt, 2)}
        )
        all_ok = all_ok and ok
    report["all_passed"] = bool(all_ok)
    return all_ok, report
