"""Double-delta model: nondimensionalization, eigenfunctions, transfer
matrix, overlap matrix.

Continuity of psi, det M = 1 and the asymptotic amplitudes, the K-matrix
reflection and dagger identities, the Hermitian limit of the conjugated
eigenfunction and the smeared-overlap oracle are registry checks
(``model.*`` in ``ddscatter.verify.CHECKS``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ddscatter import (
    Couplings,
    DomainError,
    PhysicalContext,
    ScatteringBranch,
    dimensionalize,
    k_matrix,
    m22,
    m22_with_derivative,
    nondimensionalize,
    psi_eval,
    transfer_matrix,
    u_inverse_sqrt_route,
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
        assert abs(psi_eval(c.conjugate(), s, 0.3) - np.exp(0.3j) / np.sqrt(2 * np.pi)) < 1e-15

    def test_substitution_identity(self):
        # conjugate() is the couplings' conjugate, a kept, bit for bit
        c = Couplings(0.1j, 0.4 - 0.2j, 1.0)
        cc = Couplings(c.z_plus.conjugate(), c.z_minus.conjugate(), c.a)
        assert c.conjugate() == cc
        s = ScatteringBranch(1, 1.0)
        for x in (2.0, -3.0, 0.4):
            assert psi_eval(c.conjugate(), s, x) == psi_eval(cc, s, x)


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
        # the pole of M_22: m22 and m22_with_derivative once returned nan+nanj
        c = Couplings(0.1, 0.2, 1.0)
        for fn in (transfer_matrix, m22, m22_with_derivative):
            for k in (0.0, np.array([0.5, 0.0, 1.0 + 0.2j])):
                with pytest.raises(DomainError, match="k = 0"):
                    fn(c, k)

    @pytest.mark.parametrize("k", [np.array([0.5, 1.0]), np.array([0.5])])
    def test_array_k_rejected(self, k):
        # an array k once reached complex() and raised an untyped TypeError
        with pytest.raises(DomainError, match="scalar k"):
            transfer_matrix(Couplings(0.1, 0.2, 1.0), k)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [transfer_matrix, m22, m22_with_derivative])
    def test_non_finite_k_rejected(self, fn, k):
        # these once returned all-nan values without a typed error
        c = Couplings(0.1, 0.1, 1.0)
        with pytest.raises(DomainError, match="finite k"):
            fn(c, k)
        if fn is not transfer_matrix:  # vectorized: one bad entry rejects the array
            with pytest.raises(DomainError, match="finite k"):
                fn(c, np.array([0.5, k, 1.0 + 0.2j]))

    def test_value_with_derivative_is_m22(self):
        c = Couplings(0.2 + 0.7j, -0.4, 0.8)
        ks = np.array([0.5, 1.0 + 0.3j, 2.2, -1.1 + 0.05j])
        value, _ = m22_with_derivative(c, ks)
        assert np.array_equal(value, m22(c, ks))

    def test_scalar_k_gives_numpy_scalars(self):
        c = Couplings(0.2 + 0.7j, -0.4, 0.8)
        for k in (0.5, 1.0 + 0.3j, np.float64(2.2), np.array(1.1 + 0.05j)):
            assert type(m22(c, k)) is np.complex128
            assert [type(v) for v in m22_with_derivative(c, k)] == [np.complex128] * 2
        assert m22(c, [0.5]).shape == (1,)


def m22_product_form(c, k):
    """Independent transcription of M_22 and M_22' in the (z_+, z_-)
    product form, u_pm = z_pm/(2ik), e = e^{4iak}:

        M_22  = (1 - u_+)(1 - u_-) - u_+ u_- e,
        M_22' = [u_+(1 - u_-) + u_-(1 - u_+) + 2 u_+ u_- e]/k - 4ia u_+ u_- e,

    with the sums of the moduli of each one's terms, which bound the
    rounding of either form."""
    up, um = c.z_plus / (2j * k), c.z_minus / (2j * k)
    e = np.exp(4j * c.a * k)
    upume = up * um * e
    value = (1 - up) * (1 - um) - upume
    slope = (up * (1 - um) + um * (1 - up) + 2 * upume) / k - 4j * c.a * upume
    au, am, aupume = abs(up), abs(um), abs(upume)
    value_terms = (1 + au) * (1 + am) + aupume
    slope_terms = (au * (1 + am) + am * (1 + au) + 2 * aupume) / abs(k) + 4 * c.a * aupume
    return value, slope, value_terms, slope_terms


class TestM22Evaluator:
    """m22 and m22_with_derivative read one evaluator in sigma = z_+ + z_-
    and pi = z_+ z_-.  An array k takes numpy's array loops, a scalar k
    numpy-scalar arithmetic.  The two round differently where the array
    loop of a complex product fuses its multiply-add (AVX-512 builds of
    numpy do): at z_+ = i, z_- = 1 + i, a = 3 and k = 3 the slopes differ
    in the last bit.  So a scalar k is held to the rounding bound, and an
    array entry to the same bits whatever the array's length."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        z=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
        a=st.floats(0.3, 3.0),
        re_k=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        im_k=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=3, max_size=3),
    )
    def test_forms_agree(self, z, a, re_k, im_k):
        c = Couplings(complex(z[0], z[1]), complex(z[2], z[3]), a)
        ks = np.array([complex(x, y) for x, y in zip(re_k, im_k) if abs(complex(x, y)) >= 1e-3])
        values, slopes = m22_with_derivative(c, ks)
        assert np.array_equal(values, m22(c, ks))
        for i, k in enumerate(ks):
            ref_value, ref_slope, value_terms, slope_terms = m22_product_form(c, k)
            one = m22_with_derivative(c, ks[i : i + 1])
            assert (one[0][0], one[1][0]) == (values[i], slopes[i])
            value, slope = m22_with_derivative(c, complex(k))
            assert value == m22(c, complex(k))
            for v in (value, values[i]):
                assert abs(v - ref_value) <= 1e-15 * value_terms
            for s in (slope, slopes[i]):
                assert abs(s - ref_slope) <= 1e-15 * slope_terms


class TestKMatrix:
    def test_free_identity(self):
        assert np.allclose(k_matrix(Couplings(0.0, 0.0, 1.0), 1.0), np.eye(2))

    def test_diagonal_value(self):
        K = k_matrix(Couplings(0.1j, 0.1j, 1.0), 1.0)
        assert abs(K[0, 0] - 0.995) < 1e-15
        assert abs(K[1, 1] - 0.995) < 1e-15

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("fn", [k_matrix, u_inverse_sqrt_route])
    def test_non_positive_or_non_finite_k_rejected(self, fn, k):
        # k = nan once passed the k <= 0 check: k_matrix gave an all-nan
        # matrix and u_inverse_sqrt_route raised numpy's LinAlgError
        with pytest.raises(DomainError, match="finite k > 0"):
            fn(Couplings(0.1j, 0.1j, 1.0), k)
