"""Metric constructions: bounded first-order kernel, weight-function
alternative, Fourier integral family, exact 2x2 route, spectral and
differential-equation oracles.

The eta1 spot values and symmetries, Appendix B's identities, the
appendix-A structure, the I_{n,m} closed forms, the U route, the spectral
estimate and the metric-DE scalings are registry checks (``metric.*`` in
``ddscatter.verify.CHECKS``)."""

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
    kernel_eval,
    metric_de_residual,
    spectral_metric_estimate,
    u_inverse_sqrt_route,
)
from ddscatter import kernels
from ddscatter.hermitianize import h_kernel, p_kernel, x_kernel
from ddscatter.model import theta
from ddscatter.verify import INM_POINTS, INM_TOL, inm_error


class TestEta1Bounded:
    def test_hermitian_limit_is_identity(self):
        kern = eta1_bounded(Couplings(0.4, -0.7, 1.0))
        assert kern.identity_coefficient == 1.0
        xs = np.linspace(-3, 3, 11)
        for x in xs:
            for y in xs:
                if abs(x - y) > 1e-9:
                    assert kernel_eval(kern, x, y) == 0.0

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedCouplingError):
            eta1_bounded(Couplings(0.1j, 0.1j, 1.0))


class TestAppendixA:
    def test_params_derived(self):
        p = AppendixAParams(1.0, 0.25, 0.1, -0.2, 2.0, 1.0)
        assert abs(p.rho_a - 2.0 / 0.5) < 1e-15
        assert p.eps1 == -0.1 and abs(p.eps2 + 0.02) < 1e-15

    @pytest.mark.parametrize(
        "field", ["r_plus", "r_minus", "eps_plus", "eps_minus", "gamma", "a"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, field, value):
        # a NaN eps used to build a kernel whose every value is nan+nanj
        kwargs = dict(r_plus=1.0, r_minus=0.8, eps_plus=0.1, eps_minus=0.07, gamma=1.1, a=1.0)
        kwargs[field] = value
        with pytest.raises(DomainError):
            AppendixAParams(**kwargs)

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
    # per-point view of the registry check metric.inm_closed_forms
    @pytest.mark.parametrize("n", INM_POINTS["n"])
    @pytest.mark.parametrize("m", INM_POINTS["m"])
    @pytest.mark.parametrize("alpha", INM_POINTS["alpha"])
    def test_closed_forms_match_quadrature(self, n, m, alpha):
        err, delta_ok = inm_error(n, m, alpha)
        assert err <= INM_TOL
        assert delta_ok

    def test_spot_values(self):
        assert inm(0, 2, 1.0) == (0.0, 0.0)
        assert inm(2, 2, 0.0) == (0.0, 0.25)
        d, r = inm(1, 3, 2.0)
        assert d == 0.0 and abs(r - 3j * np.exp(-2) / 8) < 1e-15

    def test_range_check(self):
        with pytest.raises(DomainError):
            inm(3, 1, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 1j])
    @pytest.mark.parametrize("fn,n,m", [(inm, 0, 1), (inm_quadrature, 2, 2)])
    def test_non_finite_alpha_rejected(self, fn, n, m, alpha):
        # inm(0, 1, nan) once returned (1.0, nan) and
        # inm_quadrature(2, 2, nan) nan
        with pytest.raises(DomainError, match="finite real alpha"):
            fn(n, m, alpha)


class TestUInverseSqrtRoute:
    def test_free_identity(self):
        U = u_inverse_sqrt_route(Couplings(0.0, 0.0, 1.0), 1.0)
        assert np.allclose(U, np.eye(2), atol=1e-14)

    def test_real_symmetric(self):
        U = u_inverse_sqrt_route(Couplings(0.2, 0.2, 1.0), 1.0)
        assert np.abs(U.imag).max() < 1e-13
        assert abs(U[0, 1] - U[1, 0]) < 1e-13


class TestSpectralEstimate:
    def test_free_vanishes(self):
        v = spectral_metric_estimate(Couplings(0.0, 0.0, 1.0), 0.5, -0.7)
        assert abs(v) < 1e-10

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

    @pytest.mark.parametrize("lam", [0.1, 0.05])
    def test_wide_packets_paired_on_their_box(self, lam, monkeypatch):
        # sigma = 4 and 3.5 reach far past [-12, 12]; on the packets' box
        # the residual equals its value on a much wider square, which it
        # takes from the support rule kernel_pair uses
        bra = GaussianPacket(4.0, 0.4, 0.2)
        ket = GaussianPacket(3.5, -0.3, -0.4)
        c = Couplings(1j * lam, -1j * lam, 1.0)
        kern = eta1_bounded(c)
        on_box = metric_de_residual(kern, c, bra, ket)
        asked = []

        def wide(bra, ket):
            asked.append((bra, ket))
            return -60.0, 60.0

        # each pairing (kinetic and potential) asks for the box itself
        monkeypatch.setattr(kernels, "_infer_support", wide)
        assert abs(on_box - metric_de_residual(kern, c, bra, ket)) <= 1e-10
        assert asked and all(pair == (bra, ket) for pair in asked)

    def test_plain_callable_rejected(self):
        bra = GaussianPacket(1.3, 0.4, 0.2)
        c = Couplings(0.1j, -0.1j, 1.0)
        with pytest.raises(DomainError, match="GaussianPacket"):
            metric_de_residual(eta1_bounded(c), c, bra, lambda y: bra(y))

    @pytest.mark.parametrize(
        "make,match",
        [(h_kernel, "multiplication-type"), (p_kernel, "multiplication-type"),
         (x_kernel, "Dirac-free")],
        ids=["h", "P", "X"],
    )
    def test_kernel_it_would_truncate_rejected(self, make, match):
        # h's kinetic part, P's momentum part and every term with a Dirac
        # factor were once dropped: h and P gave exactly 0j
        bra, ket = GaussianPacket(1.3, 0.4, 0.2), GaussianPacket(1.1, -0.3, -0.4)
        c = Couplings(0.1j, -0.1j, 1.0)
        with pytest.raises(DomainError, match=match):
            metric_de_residual(make(c), c, bra, ket)
