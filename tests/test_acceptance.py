"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s or -v to see them live).

Criterion 6's halving assertion is implemented exactly as specified and
is expected to fail: the Frobenius norm of the pointwise-sampled metric
kernel residual carries coupling-linear lattice artifacts (sign-jump and
window-edge stencils that a strictly diagonal potential difference cannot
cancel entry-wise), pinning the halving factor at 2.  The weak-form
diagnostic directly below it demonstrates the O(z^2) physics the
criterion is after.  The README states the analysis.
"""

import time

import numpy as np

from ddscatter import (
    AppendixAParams,
    ComplexRect,
    Couplings,
    GaussianPacket,
    PerturbedOperator,
    QExpansion,
    ScanMode,
    conjugated_h,
    count_bound_states,
    energy_gaussian_moving,
    energy_gaussian_shifted,
    energy_quadrature,
    eta1_appendixA,
    eta1_bounded,
    eta_from_q,
    find_spectral_singularities,
    inm,
    inm_quadrature,
    kernel_eval,
    scan_region,
    solve_q1,
    solve_q2,
    spectral_metric_estimate,
    u_fn,
    w_fn,
)
from ddscatter.grid import (
    pseudo_hermiticity_residual,
    weak_pseudo_hermiticity_residual,
)
from ddscatter.model import theta


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_energy_closed_forms_match_oracle():
    t0 = time.time()
    worst = 0.0
    for lam in (0.1, 0.2):
        c = Couplings(0.3 + 1j * lam, -0.3 - 1j * lam, 1.0)
        for sigma in (0.5, 1.0, 1.5, 3.0):
            for k in (0.0, 0.5, 1.0, 2.0):
                em = energy_gaussian_moving(c, sigma, k)
                eq = energy_quadrature(c, GaussianPacket(sigma, k, 0.0))
                worst = max(worst, abs(em.total - eq.total) / abs(eq.total))
            for x0 in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
                es = energy_gaussian_shifted(c, sigma, x0)
                eq = energy_quadrature(c, GaussianPacket(sigma, 0.0, x0))
                worst = max(worst, abs(es.total - eq.total) / abs(eq.total))
    dt = time.time() - t0
    report(1, worst <= 1e-6 and dt < 120,
           f"closed vs quadrature worst rel {worst:.2e} (<=1e-6), {dt:.0f}s (<120s)")


def test_criterion_02_moving_packet_maximum():
    t0 = time.time()
    sig = np.arange(0.2, 5.0 + 1e-9, 0.02)
    ks = np.arange(-3.0, 3.0 + 1e-9, 0.02)
    vals = np.array([[u_fn(1.0, s, k) for k in ks] for s in sig])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    k_at_max, s_at_max = ks[j], sig[i]
    dt = time.time() - t0
    ok = abs(k_at_max) < 1e-12 and 1.3 <= s_at_max <= 1.7 and dt < 30
    report(2, ok, f"U argmax at k={k_at_max:.3f} (0 exactly), sigma={s_at_max:.2f} "
                  f"(in [1.3,1.7]), {dt:.0f}s (<30s)")


def test_criterion_03_stationary_packet_maximum():
    t0 = time.time()
    sig = np.arange(0.2, 10.0 + 1e-9, 0.02)
    x0s = np.arange(-5.0, 5.0 + 1e-9, 0.02)
    vals = np.array([[w_fn(1.0, s, x) for x in x0s] for s in sig])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    x_at_max, s_at_max = x0s[j], sig[i]
    parity = max(
        abs(w_fn(1.0, s, x) - w_fn(1.0, s, -x))
        for s in (0.5, 1.5, 4.0) for x in (0.3, 1.1, 2.7)
    )
    dt = time.time() - t0
    ok = -0.05 <= x_at_max <= 0.05 and 1.3 <= s_at_max <= 1.7 and parity <= 1e-10 and dt < 30
    report(3, ok, f"W argmax at x0={x_at_max:.3f} (in [-0.05,0.05]), "
                  f"sigma={s_at_max:.2f} (in [1.3,1.7]), parity {parity:.1e}, {dt:.0f}s (<30s)")


def test_criterion_04_pt_circle_bound_states():
    t0 = time.time()
    grid = scan_region(
        ScanMode("pt_symmetric"), (-0.99, -0.01), (-0.49, 0.49), 41,
        k_max=10.0, jobs=0,
    )
    violations = []
    inside = 0
    for cell in grid.ravel():
        if (cell.r + 0.5) ** 2 + cell.s**2 < 0.23**2:
            inside += 1
            if cell.n_bound < 1:
                violations.append((cell.r, cell.s))
    dt = time.time() - t0
    ok = not violations and inside > 200 and dt < 300
    report(4, ok, f"{inside} cells strictly inside the circle, "
                  f"{len(violations)} without a bound state, {dt:.0f}s (<300s)")


def test_criterion_05_region_claims():
    t0 = time.time()
    c_real = Couplings(0.3, -0.3, 1.0)
    total, real_e = count_bound_states(c_real, ComplexRect(-1, 1, 1e-3, 3))
    c_imag = Couplings(0.3j, -0.3j, 1.0)
    ss = find_spectral_singularities(c_imag, 20.0)
    ti, _ = count_bound_states(c_imag)
    dt = time.time() - t0
    ok = (total, real_e) == (1, 1) and ss == [] and ti == 0 and dt < 10
    report(5, ok, f"z=0.3: ({total},{real_e}) bound states (expect (1,1)); "
                  f"z=0.3i: {ti} bound, {len(ss)} singularities (expect 0,0), {dt:.0f}s (<10s)")


# frozen on first run: ||eta H - H^dag eta||_F / ||H||_F at z = 0.1i
_CRIT6_C = 0.06


def test_criterion_06_sampled_metric_pseudo_hermiticity_frobenius():
    t0 = time.time()
    r1 = pseudo_hermiticity_residual(Couplings(0.1j, -0.1j, 1.0))
    r2 = pseudo_hermiticity_residual(Couplings(0.05j, -0.05j, 1.0))
    factor = r1 / r2
    dt = time.time() - t0
    bound_ok = r1 <= _CRIT6_C * 0.1**2
    ok = bound_ok and factor >= 3.0 and dt < 30
    report(6, ok, f"Frobenius residual {r1:.2e} (bound {'ok' if bound_ok else 'FAIL'}), "
                  f"halving factor {factor:.3f} (>=3 required; lattice artifacts pin it "
                  f"at 2 - see README), {dt:.0f}s")


def test_criterion_06_weak_form_diagnostic():
    # the same grid, metric and couplings measured weakly: the first-order
    # cancellation is genuine and the residual scales as O(z^2)
    r1 = weak_pseudo_hermiticity_residual(Couplings(0.1j, -0.1j, 1.0))
    r2 = weak_pseudo_hermiticity_residual(Couplings(0.05j, -0.05j, 1.0))
    factor = r1 / r2
    print(f"ACCEPTANCE 06 (weak-form diagnostic): factor {factor:.2f}")
    assert factor >= 3.0


def test_criterion_07_perturbation_cubic_scaling():
    t0 = time.time()
    rng = np.random.default_rng(77)
    H0 = np.diag(np.arange(6) + 0.3 * rng.uniform(-1, 1, 6))
    A = rng.normal(size=(6, 6))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0)
    B = rng.normal(size=(6, 6))
    T = 1j * (B - B.T) / 2

    def resid(z):
        p = PerturbedOperator(H0, (S, T), (z, 1j * z))
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        h = conjugated_h(p, QExpansion(q1, q2))
        eta = eta_from_q(q1, q2)
        H = p.total
        return (
            np.linalg.norm(h - h.conj().T),
            np.linalg.norm(eta @ H - H.conj().T @ eta),
        )

    h1, e1 = resid(1e-2)
    h2, e2 = resid(5e-3)
    fh, fe = h1 / h2, e1 / e2
    dt = time.time() - t0
    ok = fh >= 6.0 and fe >= 6.0 and dt < 5
    report(7, ok, f"h-residual halving factor {fh:.2f}, eta-residual {fe:.2f} "
                  f"(>=6, expect ~8), {dt:.1f}s (<5s)")


def test_criterion_08_appendix_a():
    t0 = time.time()
    worst = 0.0
    for n in (0, 1, 2):
        for m in (1, 2, 3):
            for alpha in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
                worst = max(worst, abs(inm(n, m, alpha)[1] - inm_quadrature(n, m, alpha)))
    p = AppendixAParams(1.0, 0.8, 0.1, 0.07, 1.1, 1.0)
    kern = eta1_appendixA(p)
    rng = np.random.default_rng(88)
    herm = max(
        abs(kernel_eval(kern, x, y) - np.conj(kernel_eval(kern, y, x)))
        for x, y in rng.uniform(-4, 4, (300, 2))
    )
    kern0 = eta1_appendixA(AppendixAParams(1.0, 0.8, 0.0, 0.0, 1.1, 1.0))
    not_identity = abs(kernel_eval(kern0, 0.0, 0.3))
    dt = time.time() - t0
    ok = worst <= 1e-8 and herm <= 1e-14 and not_identity > 1e-2 and dt < 30
    report(8, ok, f"I[n,m] worst {worst:.1e} (<=1e-8), hermiticity {herm:.1e}, "
                  f"Hermitian-limit magnitude {not_identity:.3f} (not identity), {dt:.0f}s (<30s)")


def test_criterion_09_spectral_cross_check():
    t0 = time.time()
    c = Couplings(0.1j, -0.1j, 1.0)
    kern = eta1_bounded(c)
    pts = [
        (0.5, -0.7), (2.0, 1.4), (-3.0, 0.6), (0.9, -0.9), (1.8, -0.4),
        (-1.3, 0.5), (2.6, 3.2), (-0.6, -0.8), (0.3, 1.2), (-2.2, -1.4),
    ]
    worst = 0.0
    for x, y in pts:
        est = spectral_metric_estimate(c, x, y)
        worst = max(worst, abs(est - kernel_eval(kern, x, y)))
    dt = time.time() - t0
    ok = worst <= 5e-3 and dt < 120
    report(9, ok, f"spectral estimate vs kernel worst {worst:.2e} (<=5e-3) "
                  f"at {len(pts)} points, {dt:.0f}s (<120s)")


def test_criterion_10_appendix_b_identities():
    t0 = time.time()
    rng = np.random.default_rng(10)
    u = rng.normal(size=10**6)
    v = rng.normal(size=10**6)
    u[:1000] = 0.0
    v[1000:2000] = 0.0
    v[2000:3000] = -u[2000:3000]
    sign_ok = np.array_equal(
        np.sign(u + v) * (np.sign(u) + np.sign(v)), 1 + np.sign(u) * np.sign(v)
    )
    a, z = 1.0, 0.37 + 0.21j
    xs = rng.uniform(-4, 4, 200)
    ys = rng.uniform(-4, 4, 200)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    raw = (z / 4) * (np.sign(X + Y - 2 * a) - np.sign(X - Y)) * theta(Y - a)
    stepped = (z / 8) * (np.sign(X + Y - 2 * a) + 1) - (z / 4) * np.sign(X - Y) * theta(
        X + Y - 2 * a
    )
    form_ok = np.array_equal(raw, stepped)
    dt = time.time() - t0
    ok = sign_ok and form_ok and dt < 10
    report(10, ok, f"sign identity exact on 1e6 pairs: {sign_ok}; "
                   f"form equivalence on 200x200 grid: {form_ok}; {dt:.1f}s (<10s)")
