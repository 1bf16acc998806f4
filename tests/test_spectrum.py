"""Spectral geography: singularities on the real axis, bound states in
the upper half plane, coupling-plane scans.

The Hermitian row (real antisymmetric couplings: no singularities, real
bound energies) is the registry check ``spectrum.hermitian_row``."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import ddscatter
from ddscatter import (
    ComplexRect,
    ContourError,
    Couplings,
    DomainError,
    NoConvergenceError,
    ScanMode,
    bound_state_roots,
    count_bound_states,
    count_zeros,
    couplings_with_zeros,
    default_bound_rect,
    find_spectral_singularities,
    m22,
    m22_with_derivative,
    refine_root,
    scan_region,
)
from ddscatter import spectrum as spectrum_mod

# antisymmetric couplings z_+ = -z_- = i s: singularities sit at
# s_n = n pi / (2 sqrt2 a) for odd n, at wave number k = s_n / sqrt2
SS_CURVE = lambda n, a=1.0: n * np.pi / (2 * np.sqrt(2) * a)


class TestSpectralSingularities:
    def test_small_imaginary_clean(self):
        assert find_spectral_singularities(Couplings(0.1j, -0.1j, 1.0)) == []
        assert find_spectral_singularities(Couplings(0.3j, -0.3j, 1.0)) == []

    def test_on_curve_found(self):
        # first antisymmetric imaginary-coupling curve crossing
        s1 = SS_CURVE(1)
        c = Couplings(1j * s1, -1j * s1, 1.0)
        roots = find_spectral_singularities(c)
        assert len(roots) >= 1
        assert min(abs(r - s1 / np.sqrt(2)) for r in roots) < 1e-8

    def test_curve_point_two_methods(self):
        # scan s in [4, 6] at r = 0 for the smallest s with a singularity;
        # the analytic curve gives s = 5 pi / (2 sqrt2) ~ 5.5536
        from scipy.optimize import minimize_scalar

        def min_abs_m22(s):
            c = Couplings(1j * s, -1j * s, 1.0)
            ks = np.linspace(1e-3, 8.0, 4000)
            v = np.abs(m22(c, ks))
            i = int(np.argmin(v))
            lo, hi = ks[max(0, i - 2)], ks[min(len(ks) - 1, i + 2)]
            res = minimize_scalar(
                lambda k: abs(complex(m22(c, complex(k)))),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
            )
            return res.fun

        ss = np.linspace(4.0, 6.0, 201)
        vals = np.array([min_abs_m22(s) for s in ss])
        order = np.argsort(vals)
        hits = []
        for idx in order[:8]:
            lo, hi = max(4.0, ss[idx] - 0.02), min(6.0, ss[idx] + 0.02)
            res = minimize_scalar(
                min_abs_m22, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
            )
            if res.fun < 1e-6:
                hits.append(res.x)
        assert hits, "no curve crossing found in [4, 6]"
        s_star = min(hits)
        assert abs(s_star - SS_CURVE(5)) < 1e-3

        # cross-check at the exact crossing: a thin rectangle straddling
        # the real axis counts the zero, and the singularity scanner
        # reports it at k = s / sqrt2
        s_exact = SS_CURVE(5)
        c = Couplings(1j * s_exact, -1j * s_exact, 1.0)
        k_star = s_exact / np.sqrt(2)
        n = count_zeros(
            lambda k: m22(c, k),
            ComplexRect(k_star - 0.3, k_star + 0.3, -0.2, 0.2),
        )
        assert n == 1
        found = find_spectral_singularities(c)
        assert any(abs(r - k_star) < 1e-6 for r in found)

    @pytest.mark.parametrize("z", [1e60, 1e300])
    def test_huge_couplings_do_not_overflow(self, z):
        # the cubic's coefficients reach |z|^6; they are formed for k/|z|
        for c in (Couplings(1j * z, -1j * z, 1.0), Couplings(0.5j * z, z, 1.0)):
            assert isinstance(find_spectral_singularities(c), list)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        mode=st.sampled_from(["general", "pt_symmetric", "antisymmetric"]),
        k0=st.floats(0.05, 40.0),
        re_zm=st.floats(-3.0, 3.0),
        im_zm=st.floats(-3.0, 3.0),
        half_n=st.integers(0, 25),
        a=st.floats(0.5, 2.0),
    )
    def test_constructed_singularity_recovered(self, mode, k0, re_zm, im_zm, half_n, a):
        if mode == "general":
            # F(k0) = (2ik0 - z_+)(2ik0 - z_-) - z_+ z_- e^{4iak0} is linear in z_+
            zm = complex(re_zm, im_zm)
            b = 2j * k0 - zm
            zp = 2j * k0 * b / (b + zm * np.exp(4j * a * k0))
            c = ScanMode("general", z_minus_fixed=zm).couplings(a * zp.real, a * zp.imag, a)
        else:
            # z_+ = -z_- = i n pi/(2 sqrt2 a), n odd: k0 = z_+/(i sqrt2) = n pi/(4a)
            n = 2 * half_n + 1
            c = ScanMode(mode).couplings(0.0, SS_CURVE(n), a)
            k0 = n * np.pi / (4 * a)
        found = find_spectral_singularities(c)
        assert any(abs(k - k0) <= 1e-8 * max(1.0, k0) for k in found), (c, k0, found)

    @pytest.mark.parametrize("bracket, im_zp", [((-2.0, -1.0), -1.64858), ((0.0, 1.0), 0.42756)])
    def test_double_candidate_root(self, bracket, im_zp):
        # where a singularity curve ends, k0 is a double root of
        # P(k) = g_+(k) g_-(k) - |z_+ z_-|^2, g(k) = |2ik - z|^2 = 4k^2 - 4k Im z + |z|^2
        k0 = 1.3

        def couplings(y):
            zp = complex(0.7, y)
            b = 2j * k0 - zp
            return Couplings(zp, 2j * k0 * b / (b + zp * np.exp(4j * k0)), 1.0)  # F(k0) = 0

        def p_slope(y):
            c = couplings(y)
            g = lambda z: 4 * k0 * k0 - 4 * k0 * z.imag + abs(z) ** 2
            dg = lambda z: 8 * k0 - 4 * z.imag
            return dg(c.z_plus) * g(c.z_minus) + g(c.z_plus) * dg(c.z_minus)

        y = brentq(p_slope, *bracket, xtol=1e-15)
        assert abs(y - im_zp) < 1e-5
        found = find_spectral_singularities(couplings(y))
        assert len(found) == 1 and abs(found[0] - k0) < 1e-9


def central_difference_misfit(c, k):
    """The misfits of M_22' and of H' = M_22 + k M_22' (H = k M_22) from
    m22_with_derivative, each divided by its tolerance, against this
    test's own oracle: a central difference of m22 with step
    h = 1e-4 min(|k|, 1/(4a)).

    The tolerance bounds the oracle's own error.  Its truncation,
    h^2 |f'''| / 6, is below 1e-6 S, S the sum of the moduli of the
    derivative's terms: each further k-derivative multiplies a term by at
    most a few times 1/|k| or 4a, and h^2 (1/|k|^2 + 16a^2) <= 2e-8.  Its
    rounding is below 64 ulp of T / h, T the sum of the moduli of f's
    terms."""
    h = 1e-4 * min(abs(k), 1 / (4 * c.a))
    diff = lambda g: (g(k + h) - g(k - h)) / (2 * h)
    value, slope = m22_with_derivative(c, k)
    up, um = abs(c.z_plus / (2 * k)), abs(c.z_minus / (2 * k))
    upume = up * um * abs(np.exp(4j * c.a * k))
    terms = (1 + up) * (1 + um) + upume
    slope_terms = (up * (1 + um) + um * (1 + up) + 2 * upume) / abs(k) + 4 * c.a * upume
    rounding = 64 * np.finfo(float).eps / h
    tol_m = 1e-6 * slope_terms + rounding * terms
    tol_h = 1e-6 * (terms + abs(k) * slope_terms) + rounding * (abs(k) + h) * terms
    return (
        abs(slope - diff(lambda q: m22(c, q))) / tol_m,
        abs(value + k * slope - diff(lambda q: q * m22(c, q))) / tol_h,
    )


class TestNewtonDerivatives:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        mode=st.sampled_from(["antisymmetric", "pt_symmetric", "general"]),
        r=st.floats(-8.0, 8.0),
        s=st.floats(-8.0, 8.0),
        z_minus_re=st.floats(-8.0, 8.0),
        z_minus_im=st.floats(-8.0, 8.0),
        a=st.floats(0.5, 2.0),
        re_k=st.floats(-10.0, 10.0),
        im_k=st.floats(0.01, 5.0),
    )
    def test_match_central_difference(self, mode, r, s, z_minus_re, z_minus_im, a, re_k, im_k):
        c = ScanMode(mode, complex(z_minus_re, z_minus_im)).couplings(r, s, a)
        assert max(central_difference_misfit(c, complex(re_k, im_k))) <= 1.0


class TestNoFloatingPointState:
    """m22 and m22_with_derivative set no numpy error state: Newton runs
    inside refine_root's, and the bound-state contours sample only
    Im k >= K_MIN_CUT, where |e^{4iak}| <= 1 and k != 0."""

    def test_far_below_the_axis_warns(self):
        c = Couplings(0.3 + 0.2j, -0.3 - 0.2j, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m22(c, 0.3 - 300j)
        assert any("overflow" in str(w.message) for w in caught)

    def test_newton_from_far_below_the_axis_is_quiet(self):
        # every iterate from this seed overflows e^{4iak}
        c = Couplings(0.3 + 0.2j, -0.3 - 0.2j, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                root = refine_root(lambda k: m22_with_derivative(c, k), 0.3 - 300j)
            except NoConvergenceError:
                return
        assert abs(m22(c, root)) <= 1e-9

    @pytest.mark.parametrize(
        "mode, r, s",
        [(ScanMode("pt_symmetric"), -1.0, 0.5), (ScanMode("antisymmetric"), 0.8, 0.3),
         (ScanMode("general", 0.3 - 0.2j), -1.2, 0.3)],
        ids=["pt", "antisymmetric", "general"],
    )
    def test_bound_state_roots_are_quiet(self, mode, r, s):
        c = mode.couplings(r, s, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bound_state_roots(c)


class TestBoundStates:
    def test_free_none(self):
        assert count_bound_states(Couplings(0.0, 0.0, 1.0)) == (0, 0)

    def test_real_antisymmetric_one_real(self):
        c = Couplings(0.3, -0.3, 1.0)
        assert count_bound_states(c) == (1, 1)

    def test_root_location(self):
        c = Couplings(0.3, -0.3, 1.0)
        roots = bound_state_roots(c)
        assert len(roots) == 1
        k = roots[0]
        # weakly bound: kappa solves 4 kappa^2 = z^2 (1 - e^{-4 kappa})
        assert abs(k.real) < 1e-10
        kappa = k.imag
        assert abs(4 * kappa**2 - 0.09 * (1 - np.exp(-4 * kappa))) < 1e-10

    @pytest.mark.parametrize("z", [1e308, 0.8e308])
    def test_window_past_the_float_range_rejected(self, z):
        # the window's half-width or side overflows to inf: once an
        # untyped OverflowError from count_zeros' sample count
        with pytest.raises(DomainError, match="finite"):
            count_bound_states(Couplings(z, z, 1.0))

    def test_root_location_large_hermitian_row(self):
        # z_+ = -z_- = 5000: kappa = 2500 (1 - e^{-4 kappa})^{1/2} = 2500, in a window
        # 1.25e4 wide, within count_zeros' 2**16 samples per edge
        roots = bound_state_roots(Couplings(5000, -5000, 1))
        assert len(roots) == 1 and abs(roots[0] - 2500j) <= 1e-9 * 2500

    def test_pt_point_inside_circle(self):
        mode = ScanMode("pt_symmetric")
        total, _ = count_bound_states(mode.couplings(-0.5, 0.1, 1.0))
        assert total >= 1

    def test_large_real_couplings_two_real(self):
        # z_+ = z_- = -12: F(i kappa) = 0 gives kappa = 6 -+ 6 e^{-2 kappa}, two
        # bound states 7e-5 apart at Im k ~ 6, inside the disc |k| <= 12
        c = Couplings(-12, -12, 1)
        assert count_bound_states(c) == (2, 2)
        kappas = sorted(k.imag for k in bound_state_roots(c))
        fixed = [brentq(lambda x, sg=sg: x - 6 + sg * 6 * np.exp(-2 * x), 5.5, 6.5, xtol=1e-15)
                 for sg in (1, -1)]
        assert fixed == pytest.approx([5.999963132007482, 6.000036862556323], abs=1e-12)
        assert kappas == pytest.approx(fixed, abs=1e-10)

    def test_unresolved_pair_is_loud(self):
        # z_+ = z_- = -20: the two bound states are about 4e-8 apart and the
        # count (2) is not matched by the roots located
        with pytest.raises(NoConvergenceError, match="bound states"):
            count_bound_states(Couplings(-20, -20, 1))
        grid = scan_region(ScanMode("pt_symmetric"), (-20.0, -20.0), (0.0, 0.0), 2)
        for cell in grid.ravel():
            assert cell.status.startswith("error: NoConvergenceError")
            assert not cell.quasi_hermitian

    @pytest.mark.xfail(strict=True, raises=NoConvergenceError,
                       reason="a pair this close is counted but not located (ROADMAP item 2)")
    def test_symmetric_well_pair_located(self):
        # z_+ = z_- = -20: kappa = 10 -+ 10 e^{-2 kappa}; every z_+ = z_- <= -15
        # at a = 1 fails the same way, while -14 passes
        c = Couplings(-20, -20, 1.0)
        assert count_bound_states(c) == (2, 2)
        kappas = sorted(k.imag for k in bound_state_roots(c))
        assert kappas == pytest.approx([9.99999997938846, 10.000000020611536], abs=1e-9)

    def test_count_matches_refined_roots(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = Couplings(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                1.0,
            )
            try:
                total = count_zeros(lambda k: m22(c, k), default_bound_rect(c))
            except Exception:
                continue  # zero hugging the contour: not this property's concern
            assert len(bound_state_roots(c)) == total

    def test_zero_on_the_split_line_is_resplit(self, monkeypatch):
        # the first split of this box at depth 40 cuts at Re k = -1 + 0.517 * 2,
        # through a zero: that count raises ContourError, and the retry
        # splits elsewhere and locates both zeros
        rect = ComplexRect(-1.0, 1.0, 0.1, 1.1)
        k1, k2 = complex(-1.0 + 0.517 * 2.0, 0.6), 0.5 + 0.4j
        f = lambda k: (k - k1) * (k - k2)
        fdf = lambda k: (f(k), 2 * k - k1 - k2)
        raised = []

        def counting(*args):
            try:
                return count_zeros(*args)
            except ContourError:
                raised.append(args[1])
                raise

        monkeypatch.setattr(spectrum_mod, "count_zeros", counting)
        roots = []
        spectrum_mod._isolate(f, fdf, None, rect, 2, roots, depth=40)
        assert raised and raised[0].re_max == k1.real
        assert located(roots, k1) and located(roots, k2) and len(roots) == 2


def located(roots, k):
    """True when a root lies within 1e-8 |k| of the prescribed zero k."""
    return any(abs(r - k) <= 1e-8 * abs(k) for r in roots)


class TestCouplingsWithZeros:
    """Couplings with prescribed zeros of M_22, from one linear solve in
    (sigma, pi): the oracle the bound-state search is held to."""

    @pytest.mark.parametrize(
        "ks, z_minus",
        [([0.5 + 0.7j], 0.3 - 0.2j), ([2.1], 1.5j), ([0.5 + 0.7j, -1.0 + 0.3j], None),
         ([1.2 + 0.4j, 1.2 + 0.4j + 1e-6j], None), ([0.8 + 0.2j, 3.5], None)],
    )
    def test_m22_vanishes_there(self, ks, z_minus):
        c = couplings_with_zeros(ks, 1.3, z_minus)
        if z_minus is not None:
            assert c.z_minus == z_minus
        for k in ks:
            # M_22 = -F/(4k^2), F's terms of size 4|k|^2, 2|k sigma| and 2|pi|
            scale = 1 + abs(c.z_plus + c.z_minus) / abs(k) + abs(c.z_plus * c.z_minus) / abs(k) ** 2
            assert abs(m22(c, k)) <= 1e-13 * scale

    def test_repeated_entry_is_a_double_zero(self):
        k = 0.9 + 0.6j
        c = couplings_with_zeros([k, k], 0.8)
        value, slope = m22_with_derivative(c, k)
        assert abs(value) <= 1e-14 and abs(slope) <= 1e-13
        with pytest.raises(NoConvergenceError, match="located 0 of 2"):
            bound_state_roots(c)

    @pytest.mark.parametrize(
        "ks, a, z_minus",
        [([], 1.0, None), ([0.0], 1.0, 0.2), ([1.0, 0.0], 1.0, None), ([np.nan], 1.0, 0.2),
         ([1j, 2j, 3j], 1.0, None), ([1j], 0.0, 0.2), ([1j], np.inf, 0.2), ([1j], 1.0, None),
         ([1j, 2j], 1.0, 0.2), ([1j], 1.0, np.nan)],
    )
    def test_bad_input_rejected(self, ks, a, z_minus):
        with pytest.raises(DomainError):
            couplings_with_zeros(ks, a, z_minus)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        mode=st.sampled_from(["general", "two", "pt"]),
        a=st.floats(0.5, 2.0),
        re_k=st.floats(-6.0, 6.0),
        im_k=st.floats(0.05, 6.0),
        re_k2=st.floats(-6.0, 6.0),
        im_k2=st.floats(-2.0, 6.0),
        re_zm=st.floats(-8.0, 8.0),
        im_zm=st.floats(-8.0, 8.0),
    )
    def test_prescribed_zeros_located(self, mode, a, re_k, im_k, re_k2, im_k2, re_zm, im_zm):
        # every prescribed zero with Im k >= 0.05 is located, or the count
        # it belongs to is reported unmatched; a count that leaves it out fails
        k = complex(re_k, im_k)
        assume(mode != "two" or complex(re_k2, im_k2) != 0)  # F vanishes at k = 0 anyway
        if mode == "general":
            ks, c = [k], couplings_with_zeros([k], a, complex(re_zm, im_zm))
        else:
            ks = [k, complex(re_k2, im_k2) if mode == "two" else -k.conjugate()]
            c = couplings_with_zeros(ks, a)
        try:
            roots = bound_state_roots(c)
        except NoConvergenceError:
            return
        for kk in ks:
            if kk.imag >= 0.05:
                assert located(roots, kk), (c, kk, roots)

    # pairs located per 50 at each distance by today's rectangle bisection,
    # the rest NoConvergenceError; a better close-pair search may only raise them
    CLOSE_PAIRS_LOCATED = {1e-1: 50, 1e-2: 48, 1e-3: 42, 1e-4: 26}

    @pytest.mark.parametrize("d", sorted(CLOSE_PAIRS_LOCATED, reverse=True))
    def test_close_pair_table(self, d):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(50):
            k1 = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0))
            k2 = k1 + d * np.exp(2j * np.pi * rng.uniform())
            c = couplings_with_zeros([k1, k2], rng.uniform(0.5, 2.0))
            try:
                roots = bound_state_roots(c)
            except NoConvergenceError:
                continue
            assert located(roots, k1) and located(roots, k2), (c, k1, k2, roots)
            found += 1
        assert found >= self.CLOSE_PAIRS_LOCATED[d]
        if d == 1e-1:
            assert found == 50


class TestWideWindows:
    """Large couplings make default_bound_rect wide: Re k to +-10.5 for
    antisymmetric (2.67, 8), to +-6250 on the Hermitian row z_+ = -z_- =
    5000.  count_zeros then samples each edge every pi/(8a), so e^{4iak}
    turns by at most pi/2 between samples; with 64 samples a full turn
    could hide between two of them and the count came out short."""

    @pytest.mark.parametrize(
        "mode,r,s,counts",
        [("antisymmetric", 2.67, 8.0, (7, 0)), ("pt_symmetric", -5.0, 6.0, (4, 0)),
         ("antisymmetric", 5000.0, 0.0, (1, 1))],
    )
    def test_cell_counts_every_root(self, mode, r, s, counts):
        c = ScanMode(mode).couplings(r, s, 1.0)
        assert count_bound_states(c) == counts
        assert len(bound_state_roots(c)) == counts[0]

    def test_antisymmetric_grid_all_ok(self):
        grid = scan_region(ScanMode("antisymmetric"), (-8.0, 8.0), (-8.0, 8.0), 13)
        assert [cell.status for cell in grid.flat] == ["ok"] * 169

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        mode=st.sampled_from(["antisymmetric", "pt_symmetric", "general"]),
        r=st.floats(-8.0, 8.0),
        s=st.floats(-8.0, 8.0),
        z_minus_re=st.floats(-8.0, 8.0),
        z_minus_im=st.floats(-8.0, 8.0),
    )
    def test_count_equals_roots_located(self, mode, r, s, z_minus_re, z_minus_im):
        c = ScanMode(mode, complex(z_minus_re, z_minus_im)).couplings(r, s, 1.0)
        total, _ = count_bound_states(c)
        roots = bound_state_roots(c)
        assert len(roots) == total
        disc = 0.5 * (abs(c.z_plus) + abs(c.z_minus))
        assert all(abs(k) <= disc * (1 + 1e-12) for k in roots)


def pt_imaginary_axis_roots(z, a=1.0):
    """Oracle for PT couplings z_- = conj(z_+) = conj(z): on k = i kappa,
    F(k) = (2ik - z_+)(2ik - z_-) - z_+ z_- e^{4iak} is the real function
    G(kappa) = |2 kappa + z|^2 - |z|^2 e^{-4 a kappa}; brentq on its sign
    changes gives the bound states on the imaginary axis."""
    g = lambda kappa: abs(2 * kappa + z) ** 2 - abs(z) ** 2 * np.exp(-4 * a * kappa)
    grid = np.geomspace(1e-4, 5.0, 4000)
    vals = g(grid)
    return [
        brentq(g, lo, hi, xtol=1e-15)
        for lo, hi, vlo, vhi in zip(grid, grid[1:], vals, vals[1:])
        if vlo * vhi < 0
    ]


class TestBoundStatesNearThePole:
    """M_22 has a pole at k = 0 just below the window's bottom edge
    (Im k = 1e-3); counting zeros of k M_22 keeps the small-kappa bound
    state that the pole's aliased winding used to hide."""

    C = ScanMode("pt_symmetric").couplings(-0.99, 0.1225, 1.0)

    def test_count_both_real(self):
        assert count_bound_states(self.C) == (2, 2)

    def test_roots_match_imaginary_axis_oracle(self):
        roots = sorted(bound_state_roots(self.C), key=abs)
        kappas = pt_imaginary_axis_roots(self.C.z_plus)
        assert len(kappas) == len(roots) == 2
        assert abs(kappas[0] - 0.0052296) < 1e-7 and abs(kappas[1] - 0.6243236) < 1e-7
        for k, kappa in zip(roots, kappas):
            assert abs(k - 1j * kappa) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(modulus=st.floats(0.01, 0.99), phase=st.floats(-np.pi, np.pi))
    def test_roots_match_count_pt_inside_unit_disc(self, modulus, phase):
        z = modulus * np.exp(1j * phase)
        c = Couplings(z, np.conj(z), 1.0)
        total, _ = count_bound_states(c)
        assert len(bound_state_roots(c)) == total


class TestScanRegion:
    def test_real_row_clean(self):
        grid = scan_region(ScanMode("antisymmetric"), (0.1, 0.9), (0.0, 0.4), 3)
        for ri in range(3):
            cell = grid[0, ri]  # s = 0 row
            assert cell.spectral_singularities == []
            assert cell.n_bound == cell.n_bound_real_energy
            assert cell.quasi_hermitian

    def test_small_imaginary_dominated_clean(self):
        grid = scan_region(ScanMode("antisymmetric"), (0.0, 0.1), (0.2, 0.3), 2)
        for cell in grid.ravel():
            if abs(cell.s) > abs(cell.r):
                assert cell.n_bound == 0

    def test_conjugation_symmetry(self):
        mode = ScanMode("antisymmetric")
        up = scan_region(mode, (0.3, 0.6), (0.8, 1.2), 2)
        dn = scan_region(mode, (0.3, 0.6), (-1.2, -0.8), 2)
        for (cu, cd) in zip(up.ravel(), dn[::-1].ravel()):
            assert cu.n_bound == cd.n_bound
            assert len(cu.spectral_singularities) == len(cd.spectral_singularities)

    def test_cell_invariant(self):
        grid = scan_region(ScanMode("pt_symmetric"), (-0.6, -0.4), (0.0, 0.2), 2)
        for cell in grid.ravel():
            assert cell.n_bound_real_energy <= cell.n_bound
            if cell.quasi_hermitian:
                assert not cell.spectral_singularities
                assert cell.n_bound == cell.n_bound_real_energy

    def test_cell_sees_singularity_above_any_window(self):
        # k = 27 pi/4 ~ 21.2: a cell that dropped it would read quasi-Hermitian
        cell = spectrum_mod._scan_cell((ScanMode("antisymmetric"), 0.0, SS_CURVE(27), 1.0))
        assert cell.status == "ok"
        assert cell.spectral_singularities == pytest.approx([27 * np.pi / 4], abs=1e-10)
        assert not cell.quasi_hermitian

    def test_cell_does_not_hide_bugs(self, monkeypatch):
        def bug(c):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(spectrum_mod, "count_bound_states", bug)
        with pytest.raises(TypeError):
            scan_region(ScanMode("pt_symmetric"), (-0.6, -0.4), (0.0, 0.2), 2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 1}, {"a": -1.0}, {"a": np.nan}, {"a": 0.0}, {"a": np.inf}, {"jobs": -2},
         {"r_range": (np.nan, 0.2)}, {"r_range": (-0.99, np.inf)},
         {"s_range": (-np.inf, 0.4)}, {"s_range": (-0.4, np.nan)},
         {"n": 2.5}, {"jobs": 1.5}],
    )
    def test_bad_input_rejected_before_any_cell(self, kwargs, monkeypatch):
        # a nan endpoint once filled the grid with error rows, an infinite
        # one warned in linspace first; a fractional n or jobs raised
        # TypeError
        def no_cell(task):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(spectrum_mod, "_scan_cell", no_cell)
        args = {"r_range": (-0.99, -0.01), "s_range": (-0.4, 0.4), "n": 2, **kwargs}
        with pytest.raises(DomainError):
            scan_region(ScanMode("pt_symmetric"), **args)

    def test_parallel_matches_serial(self):
        mode = ScanMode("antisymmetric")
        a = scan_region(mode, (0.1, 0.5), (0.1, 0.5), 2, jobs=1)
        b = scan_region(mode, (0.1, 0.5), (0.1, 0.5), 2, jobs=2)
        for (ca, cb) in zip(a.ravel(), b.ravel()):
            assert (ca.r, ca.s, ca.n_bound, ca.n_bound_real_energy) == (
                cb.r, cb.s, cb.n_bound, cb.n_bound_real_energy
            )
            assert ca.spectral_singularities == cb.spectral_singularities


def _scipy_modules_after(work, packages=("scipy",)):
    """The modules of ``packages`` (scipy by default) a fresh interpreter
    has loaded after importing ddscatter and running the statement
    ``work``: this one has loaded scipy for the oracles."""
    code = (
        "import sys, ddscatter\n"
        f"{work}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ddscatter.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    return out.stdout.strip()


SERIAL_SCAN = "ddscatter.scan_region(ddscatter.ScanMode('pt_symmetric'), (-0.6, -0.4), (0.0, 0.2), 2)"


def test_import_and_scan_leave_scipy_unloaded():
    assert _scipy_modules_after(SERIAL_SCAN) == "[]"


def test_import_and_serial_scan_leave_pool_unloaded():
    # scan_region imports concurrent.futures only for jobs != 1
    assert _scipy_modules_after(SERIAL_SCAN, ("concurrent",)) == "[]"
    assert _scipy_modules_after(SERIAL_SCAN.replace(", 2)", ", 2, jobs=2)"), ("concurrent",)) != "[]"


def test_grid_residuals_leave_scipy_unloaded():
    # the four residuals of the sampled operators are numpy products and eigh
    work = (
        "from ddscatter import grid\n"
        "c = ddscatter.Couplings(0.1j, -0.1j, 1.0)\n"
        "for f in (grid.pseudo_hermiticity_residual, grid.weak_pseudo_hermiticity_residual,\n"
        "          grid.xp_commutator_weak_residual, grid.rho_hermitization_weak_residual):\n"
        "    f(c)"
    )
    assert _scipy_modules_after(work) == "[]"


class TestScanModes:
    def test_maps(self):
        am = ScanMode("antisymmetric").couplings(0.4, 0.2, 2.0)
        assert abs(am.z_plus - (0.2 + 0.1j)) < 1e-15
        assert abs(am.z_minus + am.z_plus) < 1e-15
        pt = ScanMode("pt_symmetric").couplings(0.4, 0.2, 2.0)
        assert abs(pt.z_minus - np.conj(pt.z_plus)) < 1e-15
        gen = ScanMode("general", z_minus_fixed=0.3j).couplings(0.4, 0.2, 1.0)
        assert gen.z_minus == 0.3j

    def test_unknown_mode(self):
        from ddscatter import DomainError

        with pytest.raises(DomainError):
            ScanMode("diagonal")

    @pytest.mark.parametrize("zm", [np.nan, np.inf, complex(0.3, -np.inf)])
    def test_non_finite_z_minus_rejected(self, zm):
        # once constructed, and every cell of its scan became an error row
        with pytest.raises(DomainError, match="z_minus_fixed"):
            ScanMode("general", z_minus_fixed=zm)
