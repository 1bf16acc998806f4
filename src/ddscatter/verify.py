"""Named verification suites behind the ``verify`` CLI command.

Each check is a small self-contained validation of one documented
invariant, returning (passed, detail).  The fast level finishes in well
under a minute and skips the 2D-quadrature and spectral-integral oracles;
the full level runs everything.

The grid-level Frobenius pseudo-Hermiticity check is reported but does
not gate the exit status: pointwise sampling of a discontinuous kernel
carries coupling-linear lattice artifacts in the Frobenius norm, so only
its weak-form counterpart is a meaningful pass/fail statement (see the
acceptance suite and README for the full story).
"""

from __future__ import annotations

import time

import numpy as np

from . import grid as gridmod
from . import hermitianize as herm
from . import metric as metricmod
from . import model as modelmod
from . import numerics as num
from . import perturbation as pert
from . import spectrum as spec
from .kernels import kernel_eval
from .model import Couplings, ScatteringBranch
from .numerics import ComplexRect

FAST, FULL = "fast", "full"


# ---------------------------------------------------------------- numerics


def check_erf_symmetries():
    rng = np.random.default_rng(11)
    w = rng.uniform(-5, 5, 1000) + 1j * rng.uniform(-5, 5, 1000)
    e = num.erf_complex(w)
    scale = np.maximum(1.0, np.abs(e))  # |erf| reaches ~1e10 in this box
    odd = np.max(np.abs(num.erf_complex(-w) + e) / scale)
    conj = np.max(np.abs(num.erf_complex(np.conj(w)) - np.conj(e)) / scale)
    ok = odd <= 1e-12 and conj <= 1e-12
    return ok, f"odd {odd:.2e}, conj {conj:.2e} (relative)"


def check_erf_quadrature():
    # defining integral along the straight segment 0 -> w
    def oracle(w):
        val = num.integrate_1d(lambda t: np.exp(-((w * t) ** 2)), 0.0, 1.0)
        return 2.0 / np.sqrt(np.pi) * w * val

    worst = 0.0
    for w in (1.0, 1j, 0.7 + 1.3j, -2.1 + 0.4j, 3.0 - 2.0j):
        worst = max(worst, abs(num.erf_complex(w) - oracle(w)) / max(1.0, abs(oracle(w))))
    return worst <= 1e-12, f"worst rel {worst:.2e}"


def check_inv_sqrt():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
        M = num.matrix_inv_sqrt(K)
        worst = max(worst, np.linalg.norm(M @ M @ K - np.eye(2)))
    return worst <= 1e-12, f"worst ||MMK-I|| {worst:.2e}"


def check_count_zeros_additivity():
    f = lambda k: (k - (1 + 1j)) * (k - (0.4 + 0.3j)) * (k * k + 4)
    rect = ComplexRect(-1.0, 2.3, 0.1, 2.7)
    total = num.count_zeros(f, rect)
    a, b = rect.split()
    parts = num.count_zeros(f, a) + num.count_zeros(f, b)
    return total == parts == 3, f"total {total}, split sum {parts}"


def check_i22_quadrature():
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 3.0):
        closed = metricmod.inm(2, 2, alpha)[1]
        quad = num.integrate_1d(
            lambda k: np.exp(1j * k * alpha) / (1 + k * k) ** 2 / (2 * np.pi),
            -np.inf,
            np.inf,
        )
        worst = max(worst, abs(closed - quad))
    return worst <= 1e-8, f"worst {worst:.2e}"


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
        c_conj = Couplings(np.conj(c.z_plus), np.conj(c.z_minus), c.a)
        Kc = modelmod.k_matrix(c_conj, k)
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
            lo = modelmod.psi_eval(c, s, edge - 1e-9)
            hi = modelmod.psi_eval(c, s, edge + 1e-9)
            worst = max(worst, abs(hi - lo))
    return worst <= 1e-8, f"worst jump {worst:.2e}"


def check_transfer_asymptotics():
    rng = np.random.default_rng(13)
    worst_det = worst_asym = 0.0
    for _ in range(50):
        c = Couplings(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()),
            float(rng.uniform(0.4, 2.0)),
        )
        k = float(rng.uniform(0.3, 3.0))
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
    c = Couplings(0.7, -0.4, 1.3)
    s = ScatteringBranch(1, 0.9)
    xs = np.linspace(-4, 4, 41)
    d = np.max(np.abs(modelmod.psi_eval(c, s, xs) - modelmod.psi_conj_eval(c, s, xs)))
    return d == 0.0, f"max diff {d:.2e}"


# ------------------------------------------------------------------ metric


def check_sign_identity():
    rng = np.random.default_rng(17)
    u = rng.normal(size=10**6)
    v = rng.normal(size=10**6)
    # include single zeros and exact cancellations
    u[:100] = 0.0
    v[100:200] = 0.0
    v[200:300] = -u[200:300]
    lhs = np.sign(u + v) * (np.sign(u) + np.sign(v))
    rhs = 1 + np.sign(u) * np.sign(v)
    bad = int(np.sum(lhs != rhs))
    return bad == 0, f"{bad} violations"


def check_eta_form_equivalence():
    # one-sided first-order term in its raw and step-function forms
    rng = np.random.default_rng(19)
    a = 1.0
    z = 0.37 + 0.1j
    xs = rng.uniform(-4, 4, 200)
    ys = rng.uniform(-4, 4, 200)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    th = modelmod.theta
    raw = (z / 4) * (np.sign(X + Y - 2 * a) - np.sign(X - Y)) * th(Y - a)
    stepped = (z / 8) * (np.sign(X + Y - 2 * a) + 1) - (z / 4) * np.sign(X - Y) * th(
        X + Y - 2 * a
    )
    d = np.max(np.abs(raw - stepped))
    return d == 0.0, f"max diff {d:.2e}"


def check_eta1_spot_values():
    c = Couplings(0.1j, -0.1j, 1.0)
    kern = metricmod.eta1_bounded(c)
    vals = [
        (0.5, -0.7, 0.05j),
        (3.0, 4.0, 0.0),
        (-0.9, 0.4, -0.05j),
    ]
    worst = max(abs(kernel_eval(kern, x, y) - v) for x, y, v in vals)
    return worst <= 1e-15, f"worst {worst:.2e}"


def check_eta1_symmetries():
    c = Couplings(0.23 + 0.2j, 0.4 - 0.2j, 1.0)
    kern = metricmod.eta1_bounded(c)
    rng = np.random.default_rng(23)
    worst_h = 0.0
    sup = 0.0
    for _ in range(500):
        x, y = rng.uniform(-5, 5, 2)
        v = kernel_eval(kern, x, y)
        w = kernel_eval(kern, y, x)
        worst_h = max(worst_h, abs(v - np.conj(w)), abs(v + w))
        sup = max(sup, abs(v))
    bound = abs(c.z_plus.imag) / 2
    ok = worst_h <= 1e-15 and sup <= bound + 1e-12
    return ok, f"hermiticity/antisymmetry {worst_h:.2e}, sup {sup:.3f} <= {bound:.3f}"


def check_inm_closed_forms():
    worst = 0.0
    for n in (0, 1, 2):
        for m in (1, 2, 3):
            for alpha in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
                closed = metricmod.inm(n, m, alpha)[1]
                quad = metricmod.inm_quadrature(n, m, alpha)
                worst = max(worst, abs(closed - quad))
    return worst <= 1e-8, f"worst {worst:.2e}"


def check_u_route():
    worst = 0.0
    for c in (Couplings(0.05j, 0.05j, 1.0), Couplings(0.1, 0.2, 1.0), Couplings(0.2 + 0.1j, -0.1 + 0.05j, 0.7)):
        U = metricmod.u_inverse_sqrt_route(c, 1.0)
        K = modelmod.k_matrix(c, 1.0)
        c_conj = Couplings(np.conj(c.z_plus), np.conj(c.z_minus), c.a)
        Uc = metricmod.u_inverse_sqrt_route(c_conj, 1.0)
        worst = max(worst, np.linalg.norm(Uc.conj().T @ K @ U - np.eye(2)))
    return worst <= 1e-10, f"worst residual {worst:.2e}"


def check_appendixA_structure():
    p = metricmod.AppendixAParams(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    kern = metricmod.eta1_appendixA(p)
    center = abs(kernel_eval(kern, 0.0, 0.3))
    p2 = metricmod.AppendixAParams(1.0, 0.8, 0.1, 0.07, 1.1, 1.0)
    kern2 = metricmod.eta1_appendixA(p2)
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(300):
        x, y = rng.uniform(-4, 4, 2)
        worst = max(worst, abs(kernel_eval(kern2, x, y) - np.conj(kernel_eval(kern2, y, x))))
    ok = center > 1e-2 and worst <= 1e-14
    return ok, f"hermitian-limit magnitude {center:.3f} (not identity), hermiticity {worst:.2e}"


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
    pts = [(0.5, -0.7), (2.0, 1.4), (-3.0, 0.6), (0.9, -0.9), (1.8, -0.4)]
    worst = 0.0
    for x, y in pts:
        est = metricmod.spectral_metric_estimate(c, x, y)
        worst = max(worst, abs(est - kernel_eval(kern, x, y)))
    return worst <= 5e-3, f"worst {worst:.2e} over {len(pts)} points"


def check_metric_de_scaling():
    bra = herm.GaussianPacket(1.3, 0.4, 0.2)
    ket = herm.GaussianPacket(1.1, -0.3, -0.4)
    r = []
    for lam in (0.1, 0.05):
        c = Couplings(1j * lam, -1j * lam, 1.0)
        r.append(abs(metricmod.metric_de_residual(metricmod.eta1_bounded(c), c, bra, ket)))
    factor = r[0] / r[1]
    # real-part perturbation leaves the residual at second order
    c_re = Couplings(0.2 + 0.1j, 0.15 - 0.1j, 1.0)
    r_re = abs(metricmod.metric_de_residual(metricmod.eta1_bounded(c_re), c_re, bra, ket))
    ok = factor >= 3.0 and r[0] <= 1e-3 and r_re <= 1e-2
    return ok, f"halving factor {factor:.2f}, |res| {r[0]:.2e}, with Re parts {r_re:.2e}"


# ------------------------------------------------------------ hermitianize


def check_h_kernel_structure():
    from .kernels import kernel_pair

    c = Couplings(0.3 + 0.2j, -0.3 - 0.2j, 1.0)
    c2 = Couplings(0.1 + 0.2j, 0.7 - 0.2j, 1.0)  # same Im, different Re
    kern, kern2 = herm.h_kernel(c), herm.h_kernel(c2)
    # nonlocal window terms are identical regardless of the real parts
    win1 = sorted((t.coefficient.real for t in kern.terms if len(t.dirac_factors) == 1))
    win2 = sorted((t.coefficient.real for t in kern2.terms if len(t.dirac_factors) == 1))
    same_nonlocal = np.allclose(win1, win2, rtol=0, atol=1e-15)
    lam2 = c.z_plus.imag ** 2
    magnitudes_ok = np.allclose(np.abs(win1), lam2 / 8, rtol=0, atol=1e-15)
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


def check_u_w_profiles():
    ks = np.linspace(-3, 3, 121)
    u_even = max(abs(herm.u_fn(1.0, 1.4, k) - herm.u_fn(1.0, 1.4, -k)) for k in ks)
    xs = np.linspace(-5, 5, 101)
    w_even = max(abs(herm.w_fn(1.0, 2.1, x) - herm.w_fn(1.0, 2.1, -x)) for x in xs)
    ok = u_even <= 1e-12 and w_even <= 1e-10
    return ok, f"U evenness {u_even:.2e}, W parity {w_even:.2e}"


def check_energy_closed_vs_oracle(full=False):
    sigmas = (0.5, 1.0, 1.5, 3.0) if full else (1.0, 1.5)
    ks = (0.0, 0.5, 1.0, 2.0) if full else (0.0, 1.0)
    x0s = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0) if full else (0.0, -1.0)
    worst = 0.0
    for lam in (0.1, 0.2):
        c = Couplings(0.3 + 1j * lam, -0.3 - 1j * lam, 1.0)
        for s in sigmas:
            for k in ks:
                em = herm.energy_gaussian_moving(c, s, k)
                eq = herm.energy_quadrature(c, herm.GaussianPacket(s, k, 0.0))
                worst = max(worst, abs(em.total - eq.total) / abs(eq.total))
            for x0 in x0s:
                es = herm.energy_gaussian_shifted(c, s, x0)
                eq = herm.energy_quadrature(c, herm.GaussianPacket(s, 0.0, x0))
                worst = max(worst, abs(es.total - eq.total) / abs(eq.total))
    return worst <= 1e-6, f"worst rel {worst:.2e}"


def check_pt_insensitivity():
    # nonlocal energy depends on Re parts not at all (at this order)
    worst = 0.0
    for s, k in ((1.0, 0.3), (1.5, 0.0), (2.5, 1.0)):
        e1 = herm.energy_gaussian_moving(Couplings(0.4 + 0.2j, -0.1 - 0.2j, 1.0), s, k)
        e2 = herm.energy_gaussian_moving(Couplings(-0.3 + 0.2j, 0.6 - 0.2j, 1.0), s, k)
        worst = max(worst, abs(e1.nonlocal_part - e2.nonlocal_part))
    return worst <= 1e-12, f"worst nonlocal shift {worst:.2e}"


def check_xp_commutator():
    r1 = gridmod.xp_commutator_weak_residual(Couplings(0.1j, -0.1j, 1.0))
    r2 = gridmod.xp_commutator_weak_residual(Couplings(0.05j, -0.05j, 1.0))
    factor = r1 / r2
    return factor >= 3.0, f"halving factor {factor:.2f} (O(z^2) weak residual)"


# ------------------------------------------------------------ perturbation


def _random_solvable(n, z, seed):
    rng = np.random.default_rng(seed)
    H0 = np.diag(np.sort(rng.normal(size=n)))
    A = rng.normal(size=(n, n))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0)
    B = rng.normal(size=(n, n))
    T = 1j * (B - B.T) / 2
    return pert.PerturbedOperator(H0, (S, T), (z, 1j * z))


def check_perturbation_scalings():
    p1 = _random_solvable(6, 1e-2, 31)
    p2 = _random_solvable(6, 5e-3, 31)

    def resid(p):
        q1 = pert.solve_q1(p)
        q2 = pert.solve_q2(p, q1)
        h = pert.conjugated_h(p, pert.QExpansion(q1, q2))
        eta = pert.eta_from_q(q1, q2)
        H = p.total
        return (
            np.linalg.norm(h - h.conj().T),
            np.linalg.norm(eta @ H - H.conj().T @ eta),
        )

    h1, e1 = resid(p1)
    h2, e2 = resid(p2)
    fh, fe = h1 / h2, e1 / e2
    ok = fh >= 6.0 and fe >= 6.0
    return ok, f"h-residual factor {fh:.2f}, eta-residual factor {fe:.2f} (expect ~8)"


def check_perturbation_identities():
    p = _random_solvable(6, 1e-2, 37)
    q1 = pert.solve_q1(p)
    h = pert.equivalent_h(p, q1)
    lhs = h - (p.h0 + p.h1_hermitian)
    rhs = 0.25 * (p.h1_antihermitian @ q1 - q1 @ p.h1_antihermitian)
    d1 = np.linalg.norm(lhs - rhs)
    # -1/8 [[H0,Q1],Q1] equals 1/4 [H_ah, Q1] given the first-order relation
    c0 = p.h0 @ q1 - q1 @ p.h0
    lhs2 = -0.125 * (c0 @ q1 - q1 @ c0)
    d2 = np.linalg.norm(lhs2 - rhs)
    ok = d1 <= 1e-12 and d2 <= 1e-12
    return ok, f"first-order identity {d1:.2e}, two-forms identity {d2:.2e}"


# ---------------------------------------------------------------- spectrum


def check_hermitian_row():
    for r in (0.3, -0.8, 1.5):
        c = Couplings(r, -r, 1.0)
        ss = spec.find_spectral_singularities(c, 15.0)
        if ss:
            return False, f"real coupling {r} produced singularities {ss}"
        total, real_e = spec.count_bound_states(c)
        if total != real_e:
            return False, f"real coupling {r}: complex bound-state energies"
    return True, "no singularities, all bound energies real"


def check_region_claims():
    c = Couplings(0.3, -0.3, 1.0)
    total, real_e = spec.count_bound_states(c, ComplexRect(-1, 1, 1e-3, 3))
    if (total, real_e) != (1, 1):
        return False, f"z=0.3 expected (1,1), got {(total, real_e)}"
    ci = Couplings(0.3j, -0.3j, 1.0)
    ss = spec.find_spectral_singularities(ci, 20.0)
    ti, ri = spec.count_bound_states(ci)
    if ss or ti:
        return False, f"z=0.3i expected clean, got ss={ss}, bound={ti}"
    return True, "z=0.3 -> one real bound state; z=0.3i -> clean"


def check_grid_pseudo_hermiticity_weak():
    r1 = gridmod.weak_pseudo_hermiticity_residual(Couplings(0.1j, -0.1j, 1.0))
    r2 = gridmod.weak_pseudo_hermiticity_residual(Couplings(0.05j, -0.05j, 1.0))
    factor = r1 / r2
    return factor >= 3.0, f"halving factor {factor:.2f} (weak form)"


def check_grid_pseudo_hermiticity_frobenius():
    # informational: the Frobenius norm of the sampled-kernel residual is
    # coupling-linear (lattice artifacts), so the factor sits at 2
    r1 = gridmod.pseudo_hermiticity_residual(Couplings(0.1j, -0.1j, 1.0))
    r2 = gridmod.pseudo_hermiticity_residual(Couplings(0.05j, -0.05j, 1.0))
    return True, f"halving factor {r1 / r2:.3f} (reported, non-gating; see README)"


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
    ok = d <= 1e-3 and far <= 1e-3
    return ok, f"extrapolated diff {d:.2e}, far-separated max {far:.2e}"


def check_fig1_symmetry():
    mode = spec.ScanMode("antisymmetric")
    for r, s in ((0.4, 1.2), (1.1, 2.0)):
        up = spec.count_bound_states(mode.couplings(r, s, 1.0))
        dn = spec.count_bound_states(mode.couplings(r, -s, 1.0))
        if up != dn:
            return False, f"(r,s)=({r},{s}) counts {up} vs {dn}"
        ss_up = spec.find_spectral_singularities(mode.couplings(r, s, 1.0), 12.0)
        ss_dn = spec.find_spectral_singularities(mode.couplings(r, -s, 1.0), 12.0)
        if len(ss_up) != len(ss_dn) or not np.allclose(ss_up, ss_dn, atol=1e-6):
            return False, f"singularity sets differ at (r,{s})"
    return True, "spectrum symmetric under s -> -s"


CHECKS = [
    ("numerics.erf_symmetries", FAST, check_erf_symmetries),
    ("numerics.erf_quadrature_oracle", FAST, check_erf_quadrature),
    ("numerics.matrix_inv_sqrt", FAST, check_inv_sqrt),
    ("numerics.count_zeros_additivity", FAST, check_count_zeros_additivity),
    ("numerics.i22_quadrature", FAST, check_i22_quadrature),
    ("model.k_matrix_identities", FAST, check_k_matrix_identities),
    ("model.psi_continuity", FAST, check_psi_continuity),
    ("model.transfer_asymptotics", FAST, check_transfer_asymptotics),
    ("model.hermitian_limit", FAST, check_hermitian_limit_psi),
    ("metric.sign_identity", FAST, check_sign_identity),
    ("metric.form_equivalence", FAST, check_eta_form_equivalence),
    ("metric.eta1_spot_values", FAST, check_eta1_spot_values),
    ("metric.eta1_symmetries", FAST, check_eta1_symmetries),
    ("metric.inm_closed_forms", FAST, check_inm_closed_forms),
    ("metric.u_inverse_sqrt_route", FAST, check_u_route),
    ("metric.appendixA_structure", FAST, check_appendixA_structure),
    ("hermitianize.h_kernel_structure", FAST, check_h_kernel_structure),
    ("hermitianize.u_w_profiles", FAST, check_u_w_profiles),
    ("hermitianize.energy_closed_vs_oracle", FAST, check_energy_closed_vs_oracle),
    ("hermitianize.pt_insensitivity", FAST, check_pt_insensitivity),
    ("perturbation.scalings", FAST, check_perturbation_scalings),
    ("perturbation.identities", FAST, check_perturbation_identities),
    ("spectrum.hermitian_row", FAST, check_hermitian_row),
    ("spectrum.region_claims", FAST, check_region_claims),
    ("metric.appendixA_spectral_oracle", FULL, check_appendixA_spectral_oracle),
    ("metric.spectral_estimate", FULL, check_spectral_estimate),
    ("metric.de_residual_scaling", FULL, check_metric_de_scaling),
    ("metric.grid_pseudo_hermiticity_weak", FULL, check_grid_pseudo_hermiticity_weak),
    ("metric.grid_pseudo_hermiticity_frobenius", FULL, check_grid_pseudo_hermiticity_frobenius),
    ("hermitianize.energy_full_grid", FULL, lambda: check_energy_closed_vs_oracle(full=True)),
    ("hermitianize.xp_commutator", FULL, check_xp_commutator),
    ("model.smeared_overlap", FULL, check_smeared_overlap),
    ("spectrum.fig1_symmetry", FULL, check_fig1_symmetry),
]


def run_verify(level: str = "fast"):
    """Run the named suites; returns (all_passed, report dict)."""
    if level not in (FAST, FULL):
        raise ValueError("level must be 'fast' or 'full'")
    selected = [c for c in CHECKS if level == FULL or c[1] == FAST]
    report = {"level": level, "checks": []}
    all_ok = True
    for name, _, fn in selected:
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.time() - t0
        report["checks"].append(
            {"name": name, "passed": bool(ok), "detail": detail, "seconds": round(dt, 2)}
        )
        all_ok = all_ok and ok
    report["all_passed"] = bool(all_ok)
    return all_ok, report
