"""Equivalent Hermitian Hamiltonian: kernel structure, pointwise action,
energy expectation values against the quadrature oracle, pseudo-Hermitian
position/momentum kernels.

The window structure of the h kernel, the U and W parities, the [X, P]
and rho H rho^{-1} scalings and the PT insensitivity of the nonlocal
energy are registry checks (``hermitianize.*`` in ``ddscatter.verify.CHECKS``); the U argmax
is acceptance criterion 02."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ddscatter import (
    Couplings,
    DomainError,
    GaussianPacket,
    QuadratureError,
    QuadratureSpec,
    UnsupportedCouplingError,
    apply_h,
    energy_gaussian,
    energy_quadrature,
    h_delta_coefficients,
    h_kernel,
    kernel_eval,
    p_kernel,
    u_fn,
    v_fn,
    w_fn,
    x_kernel,
)
from ddscatter import numerics
from ddscatter.hermitianize import gaussian_segment_integral
from ddscatter.numerics import integrate_1d

C_ANTISYM = Couplings(0.3 + 0.2j, -0.3 - 0.2j, 1.0)
C_GENERAL = Couplings(0.25 + 0.2j, 0.4 - 0.2j, 1.0)


class TestHKernel:
    def test_hermitian_limit_local_only(self):
        kern = h_kernel(Couplings(0.4, -0.7, 1.0))
        # only the kinetic flag and the two local delta products remain
        assert kern.second_derivative_flag
        nonlocal_terms = [t for t in kern.terms if len(t.dirac_factors) == 1]
        assert all(t.coefficient == 0 for t in nonlocal_terms)

    def test_local_coefficients(self):
        kern = h_kernel(C_ANTISYM)
        local = {
            f.shift: t.coefficient
            for t in kern.terms
            if len(t.dirac_factors) == 2
            for f in t.dirac_factors
            if f.argument == "x"
        }
        assert abs(local[-1.0] - 0.3) < 1e-15  # delta(x - a): Re z_+
        assert abs(local[+1.0] + 0.3) < 1e-15  # delta(x + a): Re z_-

    def test_class_restriction(self):
        with pytest.raises(UnsupportedCouplingError):
            h_kernel(Couplings(0.1j, 0.1j, 1.0))


class TestApplyH:
    def test_free_gaussian(self):
        g = GaussianPacket(1.2, 0.4, 0.1)
        free = Couplings(0.0, 0.0, 1.0)
        assert abs(apply_h(free, g, 0.7) + g.second_derivative(0.7)) < 1e-14
        assert h_delta_coefficients(free, g) == (0, 0)

    def test_plain_callable_rejected(self):
        # apply_h needs psi'' and reads it from psi.second_derivative only
        g = GaussianPacket(1.2, 0.4, 0.1)
        with pytest.raises(DomainError, match="second_derivative"):
            apply_h(C_GENERAL, lambda x: g(x), 0.7)

    def test_delta_coefficients_need_a_packet(self):
        # the windows are integrated from the packet's panel width
        g = GaussianPacket(1.2, 0.4, 0.1)
        with pytest.raises(DomainError, match="GaussianPacket"):
            h_delta_coefficients(C_GENERAL, lambda x: g(x))

    def test_windows_closed_far_out(self):
        g = GaussianPacket(1.2, 0.0, 0.0)
        for x in (3.5, -4.0, 8.0):
            assert apply_h(C_GENERAL, g, x) == -g.second_derivative(x)

    def test_expectation_matches_energy(self):
        g = GaussianPacket(1.5, 0.7, 0.4)
        c = C_GENERAL
        val = integrate_1d(
            lambda x: np.conj(g(x)) * apply_h(c, g, x), -22, 22,
            points=[-3 * c.a, -c.a, c.a, 3 * c.a],
        )
        delta_plus, delta_minus = h_delta_coefficients(c, g)
        val += np.conj(g(c.a)) * delta_plus + np.conj(g(-c.a)) * delta_minus
        oracle = energy_quadrature(c, g)
        assert abs(val.real - oracle.total) < 1e-8
        assert abs(val.imag) < 1e-10


class TestGaussianPacket:
    @pytest.mark.parametrize("args", [(np.nan,), (1.0, np.inf), (1.0, 0.0, np.nan)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError):
            GaussianPacket(*args)


class TestEnergies:
    def test_free_kinetic_only(self):
        e = energy_quadrature(Couplings(0.0, 0.0, 1.0), GaussianPacket(2.0))
        assert abs(e.kinetic - 1 / (2 * 4.0)) < 1e-12
        assert e.local_potential == 0 and e.nonlocal_part == 0

    def test_plain_callable_rejected(self):
        # energy_gaussian and gaussian_segment_integral once raised
        # AttributeError reading psi.k0 and psi.sigma
        g = GaussianPacket(2.0)
        for energy in (energy_quadrature, energy_gaussian):
            with pytest.raises(DomainError, match="GaussianPacket"):
                energy(C_GENERAL, lambda x: g(x))
        with pytest.raises(DomainError, match="GaussianPacket"):
            gaussian_segment_integral(lambda x: g(x), -1.0, 3.0)

    @pytest.mark.parametrize(
        "lo, hi, phase",
        [(math.nan, 1.0, 0.0), (-1.0, math.nan, 0.0), (-1.0, 1.0, math.nan),
         (-1.0, 1.0, math.inf), (-math.inf, math.inf, -math.inf)],
    )
    def test_segment_nan_end_or_non_finite_phase_rejected(self, lo, hi, phase):
        # each once returned nan+nanj
        with pytest.raises(DomainError):
            gaussian_segment_integral(GaussianPacket(1.1, 0.6, -0.4), lo, hi, phase)

    def test_even_packet_antisymmetric_local_cancels(self):
        e = energy_quadrature(C_ANTISYM, GaussianPacket(1.3, 0.0, 0.0))
        assert abs(e.local_potential) < 1e-14

    def test_breakdown_total(self):
        e = energy_quadrature(C_GENERAL, GaussianPacket(1.1, 0.5, -0.3))
        assert abs(e.total - (e.kinetic + e.local_potential + e.nonlocal_part)) < 1e-12

    def test_general_closed_form(self):
        g = GaussianPacket(1.4, 0.6, -0.5)
        eg = energy_gaussian(C_GENERAL, g)
        eq = energy_quadrature(C_GENERAL, g)
        assert abs(eg.total - eq.total) <= 1e-9 * abs(eq.total)

    def test_free_closed_is_kinetic(self):
        e = energy_gaussian(Couplings(0.0, 0.0, 1.0), GaussianPacket(1.5, 0.8, 0.0))
        assert e.local_potential == 0 and e.nonlocal_part == 0
        assert abs(e.kinetic - (0.64 + 1 / 4.5)) < 1e-12

    def test_nonlocal_positive_and_peaked(self):
        c = Couplings(0.2j, -0.2j, 1.0)
        vals = {s: energy_quadrature(c, GaussianPacket(s, 0.0, 0.0)).nonlocal_part
                for s in (0.5, 1.5, 4.0)}
        assert all(v > 0 for v in vals.values())
        assert vals[1.5] > vals[0.5] and vals[1.5] > vals[4.0]

    def test_nonlocal_momentum_decay(self):
        c = Couplings(0.2j, -0.2j, 1.0)
        peak = energy_gaussian(c, GaussianPacket(1.5, 0.0, 0.0)).nonlocal_part
        far = energy_gaussian(c, GaussianPacket(1.5, 3.0, 0.0)).nonlocal_part
        assert abs(far) < 0.05 * peak

    @pytest.mark.parametrize("x0", [5.0, 1.0, -1.0])
    def test_shifted_narrow_packet_far_out(self, x0):
        # |x0|/sigma up to 100: W once overflowed to nan here
        c = Couplings(0.1j, -0.1j, 1.0)
        g = GaussianPacket(0.05, 0.0, x0)
        es = energy_gaussian(c, g)
        eq = energy_quadrature(c, g)
        assert math.isfinite(es.nonlocal_part)
        assert abs(es.nonlocal_part - eq.nonlocal_part) <= 1e-6 * abs(eq.total)
        assert abs(es.total - eq.total) <= 1e-6 * abs(eq.total)
        w_part = 0.01 * w_fn(1.0, 0.05, x0) / (4 * math.sqrt(2.0))
        assert abs(w_part - es.nonlocal_part) <= 1e-12 * abs(es.total)

    @pytest.mark.parametrize("max_subdivisions", [1, 2])
    def test_quadrature_budget_exhausted(self, max_subdivisions, monkeypatch):
        # one level (no error estimate) or two levels far from the tolerance
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=max_subdivisions)
        monkeypatch.setattr(numerics, "_PANEL_SPEC", spec)
        with pytest.raises(QuadratureError) as info:
            energy_quadrature(C_GENERAL, GaussianPacket(1.1, 0.5, -0.3))
        assert np.isfinite(info.value.estimate)
        if max_subdivisions == 1:
            assert info.value.error_bound == np.inf
        else:
            assert 0 < info.value.error_bound < np.inf


# Im z_+ <= 0.2 and Re z >= 0 keep every total above 0.01 on these ranges,
# so the relative comparison is well posed
couplings = st.builds(
    lambda re_p, re_m, lam: Couplings(complex(re_p, lam), complex(re_m, -lam), 1.0),
    st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.05, 0.2),
)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(couplings, st.floats(0.2, 5.0), st.floats(-3.0, 3.0), st.floats(-6.0, 6.0))
def test_closed_forms_match_quadrature(c, sigma, k0, x0):
    g = GaussianPacket(sigma, k0, x0)
    eq = energy_quadrature(c, g)
    assert abs(energy_gaussian(c, g).total - eq.total) <= 1e-6 * abs(eq.total)
    # U and W are the nonlocal parts of the moving and the shifted packet
    lam2 = c.z_plus.imag ** 2
    moving = energy_gaussian(c, GaussianPacket(sigma, k0, 0.0))
    u_part = lam2 * u_fn(c.a, sigma, k0) / (2 * math.sqrt(2.0))
    assert abs(u_part - moving.nonlocal_part) <= 1e-12 * abs(moving.total)
    shifted = energy_gaussian(c, GaussianPacket(sigma, 0.0, x0))
    w_part = lam2 * w_fn(c.a, sigma, x0) / (4 * math.sqrt(2.0))
    assert abs(w_part - shifted.nonlocal_part) <= 1e-12 * abs(shifted.total)


class TestProfiles:
    def test_u_decay_in_k(self):
        # oscillatory 1/k envelope toward zero, finite at large k*sigma
        peak = u_fn(1.0, 1.5, 0.0)
        for k in (40.0, 400.0, 4000.0):
            v = u_fn(1.0, 1.5, k)
            assert np.isfinite(v)
            assert abs(v) < 2.0 * peak / k

    def test_w_decay(self):
        assert w_fn(1.0, 0.8, 30.0) < 1e-100

    def test_w_no_overflow(self):
        # e^{-(a+x0)^2/2 sigma^2} times e^{2 a x0/sigma^2} once gave nan and 0
        assert math.isfinite(w_fn(1.0, 0.05, 5.0))
        assert w_fn(1.0, 0.05, 5.0) == w_fn(1.0, 0.05, -5.0)
        # the packet sits on x = a: the second term is erf(0) + erf(4/sqrt2 sigma)
        assert abs(w_fn(1.0, 0.05, 1.0) - 1.0) < 1e-15

    def test_w_parity_exact(self):
        for s in (0.05, 0.3, 1.0, 4.0):
            for x0 in np.linspace(0.0, 100 * s, 201):
                w = w_fn(1.0, s, x0)
                assert math.isfinite(w) and w == w_fn(1.0, s, -x0)

    def test_v_structure(self):
        assert abs(v_fn(1.0, 1.0, 0.0)) < 1e-15
        assert v_fn(1.0, 1.0, 0.9) > 0

    @pytest.mark.parametrize("fn", [u_fn, v_fn, w_fn])
    @pytest.mark.parametrize(
        "args",
        [(1.0, math.nan, 0.3), (math.nan, 1.0, 0.3), (1.0, 1.0, math.nan),
         (1.0, 1.0, math.inf), (-math.inf, 1.0, 0.3), (1.0, math.inf, 0.3)],
    )
    def test_non_finite_argument_rejected(self, fn, args):
        # u_fn(1, nan, 0.3) once returned nan and w_fn(1, 1, inf) 0.0
        with pytest.raises(DomainError, match="finite"):
            fn(*args)

    @pytest.mark.parametrize("fn", [u_fn, v_fn, w_fn])
    def test_non_positive_sigma_rejected(self, fn):
        with pytest.raises(DomainError, match="positive"):
            fn(1.0, 0.0, 0.3)

    @pytest.mark.parametrize("fn", [u_fn, v_fn, w_fn])
    def test_huge_finite_argument(self, fn):
        # squaring k or x0 = 1e200 once raised OverflowError (u_fn, v_fn)
        # or warned of overflow (w_fn); the true values are below 1e-200
        for t in (1e200, -1e200):
            assert abs(fn(1.0, 1.5, t)) < 1e-200

    @pytest.mark.parametrize("fn", [u_fn, v_fn, w_fn])
    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_non_positive_a_rejected(self, fn, a):
        # u_fn(-1, 1, 0.3) once returned -0.919, and u_fn(-3, 0.2, 40) took
        # wofz out of the upper half plane
        with pytest.raises(DomainError, match="positive"):
            fn(a, 1.0, 0.3)


# The numpy-scalar expressions u_fn, v_fn and gaussian_segment_integral
# were first written with, kept as the oracles of their float/cmath forms.
def _u_numpy(a, sigma, k):
    a, sigma, k = np.float64(a), np.float64(sigma), np.float64(k)
    w1 = (1j * k * sigma**2 + 3 * a) / (np.sqrt(2.0) * sigma)
    w2 = (1j * k * sigma**2 - a) / (np.sqrt(2.0) * sigma)
    pref = np.exp(-(a**2 + k**2 * sigma**4) / (2 * sigma**2))
    e1 = np.exp(-5 * a**2 / sigma**2 - 3j * a * k)
    e2 = np.exp(-(a**2) / sigma**2 + 1j * a * k)
    val = 2 * pref - e1 * scipy.special.wofz(1j * w1) - e2 * scipy.special.wofz(-1j * w2)
    return float((np.exp(-1j * k * a) * val).real)


def _v_numpy(a, sigma, x0):
    a, sigma, x0 = np.float64(a), np.float64(sigma), np.float64(x0)
    return float(np.exp(-((x0 - a) ** 2) / sigma**2) - np.exp(-((x0 + a) ** 2) / sigma**2))


def _segment_numpy(packet, lo, hi, phase):
    s, x0 = np.float64(packet.sigma), np.float64(packet.x0)
    kap = np.float64(packet.k0) + phase
    amp = np.pi ** (-0.25) / np.sqrt(s) * s * np.sqrt(np.pi / 2)
    pref = amp * np.exp(1j * kap * x0 - kap**2 * s**2 / 2)

    def end(t):
        if np.isposinf(t):
            return pref
        if np.isneginf(t):
            return -pref
        w = (t - x0 - 1j * kap * s**2) / (np.sqrt(2.0) * s)
        e_t = amp * np.exp(1j * kap * t - (t - x0) ** 2 / (2 * s**2))
        if w.real >= 0:
            return pref - e_t * scipy.special.wofz(1j * w)
        return e_t * scipy.special.wofz(-1j * w) - pref

    return complex(end(hi) - end(lo))


SEGMENTS = {
    "infinite": [(-np.inf, np.inf), (-np.inf, -1.0), (1.0, np.inf)],
    "finite": [(-1.0, 3.0), (-3.0, 1.0)],
}


class TestScalarArithmetic:
    """The profiles and the segment integral compute in Python floats:
    numpy scalars in give the same value, and the numpy forms they
    replace agree to rounding (measured worst: 3.5e-15 for U on the grid
    below, 8e-15 for the segment integrals)."""

    def test_u_matches_numpy_form_on_the_u_map_grid(self):
        for sigma in np.linspace(0.5, 3.0, 60):
            for k in np.linspace(-3.0, 3.0, 121):
                want = _u_numpy(1.0, sigma, k)
                assert abs(u_fn(1.0, sigma, k) - want) <= 1e-12 * abs(want)

    def test_v_matches_numpy_form(self):
        for sigma in np.linspace(0.5, 3.0, 11):
            for x0 in np.linspace(-3.0, 3.0, 25):
                want = _v_numpy(1.0, sigma, x0)
                assert abs(v_fn(1.0, sigma, x0) - want) <= 1e-13 * max(abs(want), 1e-300)

    @pytest.mark.parametrize("bounds", SEGMENTS.values(), ids=SEGMENTS.keys())
    def test_segment_integral_matches_numpy_form(self, bounds):
        rng = np.random.default_rng(16)
        for _ in range(200):
            g = GaussianPacket(rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
            phase = rng.uniform(-40.0, 40.0)
            for lo, hi in bounds:
                want = _segment_numpy(g, lo, hi, phase)
                got = gaussian_segment_integral(g, lo, hi, phase)
                assert type(got) is complex
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("fn", [u_fn, v_fn, w_fn])
    def test_profiles_same_for_numpy_scalars(self, fn):
        for args in [(1.0, 0.8, 0.3), (0.7, 2.5, -1.9), (1.3, 0.05, 4.0)]:
            want = fn(*args)
            got = fn(*(np.float64(v) for v in args))
            assert type(got) is float and type(want) is float
            assert got == want

    @pytest.mark.parametrize("bounds", SEGMENTS.values(), ids=SEGMENTS.keys())
    def test_segment_integral_same_for_numpy_scalars(self, bounds):
        g = GaussianPacket(1.1, 0.6, -0.4)
        g_np = GaussianPacket(np.float64(1.1), np.float64(0.6), np.float64(-0.4))
        assert type(g_np.sigma) is float and g_np == g
        for lo, hi in bounds:
            want = gaussian_segment_integral(g, lo, hi, 2.5)
            got = gaussian_segment_integral(g_np, np.float64(lo), np.float64(hi), np.float64(2.5))
            assert got == want

    def test_segment_integral_huge_k0_or_x0(self):
        # k0 or x0 = 1e200 once raised OverflowError squaring it
        whole = math.sqrt(2.0) * math.pi**0.25  # int psi dx at sigma = 1, k0 = 0
        far, fast = GaussianPacket(1.0, 0.0, 1e200), GaussianPacket(1.0, 1e200, 0.0)
        for lo, hi in SEGMENTS["infinite"] + SEGMENTS["finite"]:
            want = whole if hi == np.inf else 0.0
            assert abs(gaussian_segment_integral(far, lo, hi) - want) <= 1e-15
            assert abs(gaussian_segment_integral(fast, lo, hi)) <= 1e-150


class TestObservableKernels:
    def test_hermitian_limit(self):
        xk = x_kernel(Couplings(0.5, -0.5, 1.0))
        pk = p_kernel(Couplings(0.5, -0.5, 1.0))
        # position: only the x delta(x-y) term carries weight
        assert all(t.coefficient == 0 for t in xk.terms if not t.dirac_factors)
        assert all(t.coefficient == 0 for t in pk.terms)
        assert pk.momentum_flag

    def test_x_band_closes(self):
        xk = x_kernel(Couplings(0.2j, -0.2j, 1.0))
        assert kernel_eval(xk, 2.0, 1.5) == 0.0  # x+y > 2a
        v = kernel_eval(xk, 0.4, -0.9)
        assert abs(v - 0.05j * 1.3) < 1e-15  # (i Im z/4)|x-y| inside the band

    def test_x_first_order_antihermitian(self):
        xk = x_kernel(Couplings(0.2j, -0.2j, 1.0))
        rng = np.random.default_rng(20)
        for _ in range(200):
            x, y = rng.uniform(-3, 3, 2)
            v, w = kernel_eval(xk, x, y), kernel_eval(xk, y, x)
            assert abs(v + np.conj(w)) < 1e-15

    def test_class_restriction(self):
        with pytest.raises(UnsupportedCouplingError):
            x_kernel(Couplings(0.1j, 0.2j, 1.0))
        with pytest.raises(UnsupportedCouplingError):
            p_kernel(Couplings(0.1j, 0.2j, 1.0))
