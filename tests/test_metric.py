"""Metric constructions: bounded first-order kernel, weight-function
alternative, Fourier integral family, exact 2x2 route, spectral and
differential-equation oracles."""

import numpy as np
import pytest

from ddscatter import (
    AppendixAParams,
    Couplings,
    DomainError,
    GaussianPacket,
    UnsupportedCouplingError,
    eta1_appendixA,
    eta1_bounded,
    inm,
    inm_quadrature,
    k_matrix,
    kernel_eval,
    metric_de_residual,
    spectral_metric_estimate,
    u_inverse_sqrt_route,
)
from ddscatter.model import theta


class TestEta1Bounded:
    def test_hermitian_limit_is_identity(self):
        kern = eta1_bounded(Couplings(0.4, -0.7, 1.0))
        assert kern.identity_coefficient == 1.0
        xs = np.linspace(-3, 3, 11)
        for x in xs:
            for y in xs:
                if abs(x - y) > 1e-9:
                    assert kernel_eval(kern, x, y) == 0.0

    def test_outside_band_vanishes(self):
        kern = eta1_bounded(Couplings(0.2j, -0.2j, 1.0))
        assert kernel_eval(kern, 3.0, 4.0) == 0.0
        assert kernel_eval(kern, -3.0, -4.0) == 0.0

    def test_point_values(self):
        # direct evaluation with the step-function conventions
        kern = eta1_bounded(Couplings(0.1j, -0.1j, 1.0))
        assert kernel_eval(kern, 0.5, -0.7) == 0.05j
        kern2 = eta1_bounded(Couplings(0.2j, -0.2j, 1.0))
        assert kernel_eval(kern2, 0.5, -0.7) == 0.1j

    def test_symmetry_audit(self):
        # purely imaginary, antisymmetric regular part -> Hermitian metric
        kern = eta1_bounded(Couplings(0.6 + 0.2j, 0.3 - 0.2j, 1.0))
        rng = np.random.default_rng(9)
        for _ in range(300):
            x, y = rng.uniform(-4, 4, 2)
            v, w = kernel_eval(kern, x, y), kernel_eval(kern, y, x)
            assert v == -w
            assert v.real == 0.0

    def test_sup_bound(self):
        lam = 0.37
        kern = eta1_bounded(Couplings(1j * lam, -1j * lam, 1.0))
        rng = np.random.default_rng(10)
        sup = max(
            abs(kernel_eval(kern, *rng.uniform(-5, 5, 2))) for _ in range(2000)
        )
        assert sup <= lam / 2 + 1e-12

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedCouplingError):
            eta1_bounded(Couplings(0.1j, 0.1j, 1.0))


class TestAppendixBIdentities:
    def test_sign_identity_exact(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=10**6)
        v = rng.normal(size=10**6)
        u[:1000] = 0.0
        v[1000:2000] = 0.0
        v[2000:3000] = -u[2000:3000]
        lhs = np.sign(u + v) * (np.sign(u) + np.sign(v))
        rhs = 1 + np.sign(u) * np.sign(v)
        assert np.array_equal(lhs, rhs)

    def test_form_equivalence_exact(self):
        # raw one-sided first-order term == its step-function rearrangement
        rng = np.random.default_rng(14)
        a, z = 1.0, 0.41 + 0.13j
        xs = rng.uniform(-4, 4, 200)
        ys = rng.uniform(-4, 4, 200)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        raw = (z / 4) * (np.sign(X + Y - 2 * a) - np.sign(X - Y)) * theta(Y - a)
        stepped = (z / 8) * (np.sign(X + Y - 2 * a) + 1) - (z / 4) * np.sign(
            X - Y
        ) * theta(X + Y - 2 * a)
        assert np.array_equal(raw, stepped)


class TestAppendixA:
    def test_params_derived(self):
        p = AppendixAParams(1.0, 0.25, 0.1, -0.2, 2.0, 1.0)
        assert abs(p.rho_a - 2.0 / 0.5) < 1e-15
        assert p.eps1 == -0.1 and abs(p.eps2 + 0.02) < 1e-15

    def test_hermitian_limit_not_identity(self):
        kern = eta1_appendixA(AppendixAParams(1.0, 1.0, 0.0, 0.0, 1.0, 1.0))
        # a surviving -exp(-|x-y|/rho)/(4 rho) tail, doubled by completion
        v = kernel_eval(kern, 0.0, 0.3)
        assert abs(v) > 1e-2
        assert abs(v.imag) < 1e-15

    def test_pointwise_hermiticity(self):
        kern = eta1_appendixA(AppendixAParams(1.0, 1.0, 0.1, 0.1, 1.0, 1.0))
        rng = np.random.default_rng(15)
        for _ in range(300):
            x, y = rng.uniform(-4, 4, 2)
            assert abs(kernel_eval(kern, x, y) - np.conj(kernel_eval(kern, y, x))) < 1e-15

    def test_partial_sum_oracle(self):
        # second reader: assemble the kernel from the six partial-sum
        # pieces with the leading Fourier integrals inserted
        p = AppendixAParams(1.0, 0.8, 0.1, 0.07, 1.1, 1.0)
        kern = eta1_appendixA(p)
        rng = np.random.default_rng(16)
        for _ in range(200):
            x, y = rng.uniform(-4, 4, 2)
            ref = _partial_sum_kernel(p, x, y)
            assert abs(kernel_eval(kern, x, y) - ref) < 1e-13


def _i11(u):
    return 0.5j * np.exp(-abs(u)) * np.sign(u)


def _i21(u):
    return 0.5 * np.exp(-abs(u))


def _partial_sum_kernel(p, x, y):
    """Assembly from the one-sided partial sums (independent transcription
    of the same construction, first order in eps)."""
    rho, a = p.rho_a, p.a
    th = theta

    def one_sided(x, y):
        xm, xp, ym, yp = x - a, x + a, y - a, y + a
        ud = (x - y) / rho
        um = (xm + ym) / rho
        up = (xp + yp) / rho
        u4 = (x - y + 4 * a) / rho
        zp, zm = p.z_plus, p.z_minus
        cross = p.r_plus * p.r_minus * (1 + 1j * (p.eps_plus - p.eps_minus))
        t = -_i21(ud) / (2 * rho) / 1.0  # eta_00 regular part: (1/2rho) * (-e/2)
        t += (rho / 4) * p.r_plus**2 * th(xm) * th(ym) * (_i21(ud) - _i21(um))
        t += (rho / 4) * p.r_minus**2 * th(-xp) * th(-yp) * (_i21(ud) - _i21(up))
        # coupling-linear pieces carry the Fourier-integral factor i/2k
        t += -zp * th(ym) * (_i11(ud) - _i11(um)) / (2j)
        t += zm * th(-yp) * (_i11(ud) - _i11(up)) / (2j)
        t += (rho / 4) * cross * th(-xp) * th(ym) * (
            _i21(up) + _i21(um) - _i21(ud) - _i21(u4)
        )
        return t

    return one_sided(x, y) + np.conj(one_sided(y, x))


class TestInm:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0])
    def test_closed_forms_match_quadrature(self, n, m, alpha):
        delta, regular = inm(n, m, alpha)
        assert abs(regular - inm_quadrature(n, m, alpha)) <= 1e-8
        if (n, m) == (0, 1):
            assert delta == 1.0
        else:
            assert delta == 0.0

    def test_spot_values(self):
        assert inm(0, 2, 1.0) == (0.0, 0.0)
        assert inm(2, 2, 0.0) == (0.0, 0.25)
        d, r = inm(1, 3, 2.0)
        assert d == 0.0 and abs(r - 3j * np.exp(-2) / 8) < 1e-15

    def test_range_check(self):
        with pytest.raises(DomainError):
            inm(3, 1, 0.0)


class TestUInverseSqrtRoute:
    def test_free_identity(self):
        U = u_inverse_sqrt_route(Couplings(0.0, 0.0, 1.0), 1.0)
        assert np.allclose(U, np.eye(2), atol=1e-14)

    def test_small_imaginary(self):
        c = Couplings(0.05j, 0.05j, 1.0)
        U = u_inverse_sqrt_route(c, 1.0)
        K = k_matrix(c, 1.0)
        cc = Couplings(-0.05j, -0.05j, 1.0)
        Uc = u_inverse_sqrt_route(cc, 1.0)
        assert np.linalg.norm(Uc.conj().T @ K @ U - np.eye(2)) <= 1e-10

    def test_real_symmetric(self):
        U = u_inverse_sqrt_route(Couplings(0.2, 0.2, 1.0), 1.0)
        assert np.abs(U.imag).max() < 1e-13
        assert abs(U[0, 1] - U[1, 0]) < 1e-13


class TestSpectralEstimate:
    def test_free_vanishes(self):
        v = spectral_metric_estimate(Couplings(0.0, 0.0, 1.0), 0.5, -0.7)
        assert abs(v) < 1e-10

    @pytest.mark.slow
    def test_matches_bounded_kernel(self):
        c = Couplings(0.1j, -0.1j, 1.0)
        kern = eta1_bounded(c)
        v = spectral_metric_estimate(c, 0.5, -0.7)
        assert abs(v - kernel_eval(kern, 0.5, -0.7)) <= 5e-3
        assert abs(v - 0.05j) <= 5e-3

    @pytest.mark.slow
    def test_conjugate_antisymmetry(self):
        c = Couplings(0.1j, -0.1j, 1.0)
        v = spectral_metric_estimate(c, 0.8, -0.3)
        w = spectral_metric_estimate(c, -0.3, 0.8)
        assert abs(v - np.conj(w)) <= 1e-4

    def test_class_restriction(self):
        with pytest.raises(UnsupportedCouplingError):
            spectral_metric_estimate(Couplings(0.1j, 0.3j, 1.0), 0.5, -0.7)

    def test_near_singular_rejected(self):
        with pytest.raises(DomainError):
            spectral_metric_estimate(Couplings(0.1j, -0.1j, 1.0), 0.5, 0.5 - 0.01)


class TestMetricDE:
    def test_identity_free_zero(self):
        from ddscatter import DistributionalKernel

        bra = GaussianPacket(1.3, 0.4, 0.2)
        ket = GaussianPacket(1.1, -0.3, -0.4)
        ident = DistributionalKernel(identity_coefficient=1.0)
        r = metric_de_residual(ident, Couplings(0.0, 0.0, 1.0), bra, ket)
        assert abs(r) == 0.0

    @pytest.mark.slow
    def test_quadratic_scaling(self):
        bra = GaussianPacket(1.3, 0.4, 0.2)
        ket = GaussianPacket(1.1, -0.3, -0.4)
        res = {}
        for lam in (0.1, 0.05):
            c = Couplings(1j * lam, -1j * lam, 1.0)
            res[lam] = abs(metric_de_residual(eta1_bounded(c), c, bra, ket))
        # C fixed empirically on first run and frozen
        assert res[0.1] <= 3e-3 * 0.1**2 * 30
        assert res[0.1] / res[0.05] >= 3.0

    @pytest.mark.slow
    def test_real_part_insensitive(self):
        # adding real coupling parts leaves the residual at second order
        bra = GaussianPacket(1.3, 0.4, 0.2)
        ket = GaussianPacket(1.1, -0.3, -0.4)
        r = {}
        for scale in (1.0, 0.5):
            c = Couplings((0.2 + 0.1j) * scale, (0.15 - 0.1j) * scale, 1.0)
            r[scale] = abs(metric_de_residual(eta1_bounded(c), c, bra, ket))
        assert r[1.0] / r[0.5] >= 3.0
