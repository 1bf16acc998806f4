"""Double-delta model: nondimensionalization, eigenfunctions, transfer
matrix, overlap matrix.

Continuity of psi, det M = 1 and the asymptotic amplitudes, the K-matrix
reflection and dagger identities, the Hermitian limit of the conjugated
eigenfunction and the smeared-overlap oracle are registry checks
(``model.*`` in ``ddscatter.verify.CHECKS``)."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddscatter import (
    Couplings,
    DomainError,
    PhysicalContext,
    ScatteringBranch,
    dimensionalize,
    k_matrix,
    m22,
    nondimensionalize,
    psi_conj_eval,
    psi_eval,
    transfer_matrix,
)


class TestNondimensionalize:
    def test_zero_couplings(self):
        ctx = PhysicalContext(1.0, 1.0, 2.0, 1.5, 0.0, 0.0)
        c = nondimensionalize(ctx)
        assert c.z_plus == 0 and c.z_minus == 0

    def test_unit_separation(self):
        ctx = PhysicalContext(1.0, 1.0, 1.5, 1.5, 0.1, 0.2)
        assert nondimensionalize(ctx).a == 1.0

    def test_arithmetic(self):
        ctx = PhysicalContext(0.5, 1.0, 1.0, 1.0, 0.3j, 0.0)
        assert abs(nondimensionalize(ctx).z_plus - 0.3j) < 1e-15

    def test_round_trip(self):
        c = Couplings(0.4 + 0.2j, -0.7 + 0.1j, 1.7)
        ctx = dimensionalize(c, mass=3.0, hbar=2.0, length_scale=0.9)
        back = nondimensionalize(ctx)
        assert abs(back.z_plus - c.z_plus) < 1e-15
        assert abs(back.z_minus - c.z_minus) < 1e-15
        assert abs(back.a - c.a) < 1e-15

    def test_invariants(self):
        with pytest.raises(DomainError):
            PhysicalContext(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            Couplings(0.0, 0.0, -2.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mass", np.nan),
            ("hbar", np.inf),
            ("hbar", 0.0),
            ("hbar", -1.0),
            ("length_scale", np.inf),
            ("alpha", np.nan),
            ("zeta_plus", complex(np.nan, 0.0)),
            ("zeta_minus", complex(0.0, -np.inf)),
        ],
    )
    def test_bad_physical_context_rejected(self, field, value):
        # hbar = 0 used to reach nondimensionalize and divide by zero there
        kwargs = dict(mass=1.0, hbar=1.0, length_scale=1.0, alpha=1.0,
                      zeta_plus=0.1, zeta_minus=0.2)
        kwargs[field] = value
        with pytest.raises(DomainError):
            PhysicalContext(**kwargs)

    @pytest.mark.parametrize(
        "args", [(np.nan, 0.0), (0.0, complex(0.0, np.inf)), (0.0, 0.0, np.nan)]
    )
    def test_non_finite_couplings_rejected(self, args):
        with pytest.raises(DomainError):
            Couplings(*args)


class TestPsi:
    def test_plane_wave_inside(self):
        c = Couplings(0.7 + 0.3j, -0.2 + 0.1j, 1.0)
        s = ScatteringBranch(1, 1.3)
        for x in (-0.9, 0.0, 0.5):
            assert abs(psi_eval(c, s, x) - np.exp(1.3j * x) / np.sqrt(2 * np.pi)) < 1e-15

    def test_free_everywhere(self):
        c = Couplings(0.0, 0.0, 1.0)
        s = ScatteringBranch(1, 0.8)
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(psi_eval(c, s, xs), np.exp(0.8j * xs) / np.sqrt(2 * np.pi))

    def test_branch_two_is_reflected(self):
        c = Couplings(0.4, 0.3, 1.0)
        k = 1.1
        xs = np.linspace(-4, 4, 17)
        b2 = psi_eval(c, ScatteringBranch(2, k), xs)
        b1m = np.exp(-1j * k * xs) / np.sqrt(2 * np.pi)
        # inside the wells branch 2 is the reflected plane wave
        inside = np.abs(xs) < c.a
        assert np.allclose(b2[inside], b1m[inside])

    def test_ode_matching_oracle(self):
        # integrate the wave equation with regularized deltas from the left
        # asymptotic region and compare at x = 2
        c = Couplings(0.3, -0.3, 1.0)
        k, w = 1.0, 1e-3
        s = ScatteringBranch(1, k)

        def vreg(x):
            g = lambda t: np.exp(-(t * t) / (2 * w * w)) / (w * np.sqrt(2 * np.pi))
            return c.z_plus * g(x - c.a) + c.z_minus * g(x + c.a)

        def rhs(x, y):
            psi = y[0] + 1j * y[1]
            dpsi = y[2] + 1j * y[3]
            ddpsi = (vreg(x) - k * k) * psi
            return [dpsi.real, dpsi.imag, ddpsi.real, ddpsi.imag]

        x0 = -6.0
        p0 = psi_eval(c, s, x0)
        # left asymptotic derivative from the closed form's amplitudes
        al = 1 + 1j * c.z_minus / (2 * k)
        bl = -1j * c.z_minus / (2 * k) * np.exp(-2j * k * c.a)
        d0 = (1j * k * al * np.exp(1j * k * x0) - 1j * k * bl * np.exp(-1j * k * x0)) / np.sqrt(
            2 * np.pi
        )
        sol = solve_ivp(
            rhs, (x0, 2.0), [p0.real, p0.imag, d0.real, d0.imag],
            method="DOP853", rtol=1e-10, atol=1e-12, max_step=0.02,
        )
        num = sol.y[0, -1] + 1j * sol.y[1, -1]
        assert abs(num - psi_eval(c, s, 2.0)) < 1e-4


class TestPsiConj:
    def test_plane_wave_inside(self):
        c = Couplings(0.5j, 0.2j, 1.0)
        s = ScatteringBranch(1, 1.0)
        assert abs(psi_conj_eval(c, s, 0.3) - np.exp(0.3j) / np.sqrt(2 * np.pi)) < 1e-15

    def test_substitution_identity(self):
        # conjugated-model eigenfunction == psi of the conjugated couplings
        c = Couplings(0.1j, 0.4 - 0.2j, 1.0)
        cc = Couplings(np.conj(c.z_plus), np.conj(c.z_minus), c.a)
        s = ScatteringBranch(1, 1.0)
        for x in (2.0, -3.0, 0.4):
            assert psi_conj_eval(c, s, x) == psi_eval(cc, s, x)


class TestTransferMatrix:
    def test_free_identity(self):
        M = transfer_matrix(Couplings(0.0, 0.0, 1.0), 1.3)
        assert np.allclose(M, np.eye(2), atol=1e-15)

    def test_single_delta_reduction(self):
        c = Couplings(0.6 + 0.1j, 0.0, 1.0)
        k = 0.9
        u = c.z_plus / (2j * k)
        expected = np.array(
            [[1 + u, u * np.exp(-2j * k * c.a)], [-u * np.exp(2j * k * c.a), 1 - u]]
        )
        assert np.allclose(transfer_matrix(c, k), expected, atol=1e-14)

    def test_m22_matches_matrix(self):
        c = Couplings(0.2 + 0.7j, -0.4, 0.8)
        for k in (0.5, 1.0 + 0.3j, 2.2):
            assert abs(m22(c, k) - transfer_matrix(c, k)[1, 1]) < 1e-13

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            transfer_matrix(Couplings(0.1, 0.1, 1.0), 0.0)


class TestKMatrix:
    def test_free_identity(self):
        assert np.allclose(k_matrix(Couplings(0.0, 0.0, 1.0), 1.0), np.eye(2))

    def test_diagonal_value(self):
        K = k_matrix(Couplings(0.1j, 0.1j, 1.0), 1.0)
        assert abs(K[0, 0] - 0.995) < 1e-15
        assert abs(K[1, 1] - 0.995) < 1e-15
