"""Numerical kernel: adaptive quadrature, the panel rule with
breakpoints, 2x2 inverse square root, argument-principle counting,
Newton refinement.

The I_{2,2} quadrature, the inverse square root round trip and
zero-count additivity are registry checks (``numerics.*`` in
``ddscatter.verify.CHECKS``)."""

import numpy as np
import pytest

from ddscatter import (
    BranchError,
    ComplexRect,
    ContourError,
    Couplings,
    DomainError,
    NoConvergenceError,
    QuadratureError,
    QuadratureSpec,
    count_zeros,
    integrate_1d,
    integrate_panels,
    k_matrix,
    m22,
    m22_with_derivative,
    matrix_inv_sqrt,
    numerics,
    refine_root,
)
from ddscatter.numerics import _GL_WEIGHTS, _unit_panels
from ddscatter.verify import I22_ALPHAS, INM_TOL, i22_error


class TestIntegrate1d:
    def test_unit(self):
        assert abs(integrate_1d(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-14

    def test_gaussian_halfline(self):
        v = integrate_1d(lambda t: np.exp(-t * t), 0.0, np.inf)
        assert abs(v - np.sqrt(np.pi) / 2) < 1e-12

    def test_fourier_rational(self):
        # (1/2pi) int e^{ik}/(1+k^2)^2 dk = e^{-1}/2
        v = integrate_1d(
            lambda k: np.exp(1j * k) / (1 + k * k) ** 2, -np.inf, np.inf
        ) / (2 * np.pi)
        assert abs(v - np.exp(-1) / 2) < 1e-12

    @pytest.mark.parametrize("alpha", I22_ALPHAS)
    def test_i22_closed_form(self, alpha):
        # per-point view of the registry check numerics.i22_quadrature
        assert i22_error(alpha) < INM_TOL

    def test_declared_breakpoint(self):
        v = integrate_1d(lambda x: abs(x) ** -0.5 if x != 0 else 0.0, -1.0, 1.0, points=[0.0])
        assert abs(v - 4.0) < 1e-9

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_budget_exhausted(self):
        # one QUADPACK interval cannot resolve 40 periods: its bound is far
        # beyond 50 tolerances, and the error carries the estimate and bound,
        # even where QUADPACK's own warning would be raised as an error
        spec = QuadratureSpec(max_subdivisions=1)
        with pytest.raises(QuadratureError) as info:
            integrate_1d(lambda x: 1.0 + np.cos(80.0 * x), 0.0, np.pi, spec)
        assert 50 * 1e-10 * np.pi < info.value.error_bound < np.inf
        assert np.isfinite(info.value.estimate)

    def test_tolerance_spec(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"abs_tol": np.nan}, {"rel_tol": np.inf}],
    )
    def test_non_finite_spec_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestIntegratePanels:
    def test_gaussian_fourier(self):
        # int e^{-x^2} e^{2ix} dx = sqrt(pi) e^{-1}, tails below 1e-27 dropped
        v = integrate_panels(lambda x: np.exp(-x * x + 2j * x), (-8.0, 8.0), 1.0)
        assert isinstance(v, complex)
        assert abs(v - np.sqrt(np.pi) * np.exp(-1)) < 1e-14

    def test_breakpoints(self):
        # the kink of |x - 0.3| sits on a cut, so each segment is exact:
        # 1.3^2/2 + 1.7^2/2 = 2.29
        v = integrate_panels(lambda x: np.abs(x - 0.3), (-1.0, 0.3, 2.0), 1.0)
        assert abs(v - 2.29) < 1e-14

    def test_budget_exhausted(self, monkeypatch):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=8)
        monkeypatch.setattr(numerics, "_PANEL_SPEC", spec)
        with pytest.raises(QuadratureError) as info:
            integrate_panels(lambda x: np.exp(-x * x), (-8.0, 8.0), 4.0)
        assert 0 < info.value.error_bound < 1e-3
        assert abs(info.value.estimate - np.sqrt(np.pi)) < 1e-3

    def test_budget_floor_applied_inside(self):
        # panels 1e-3 wide would put 16,000 on (-8, 8), past the budget of
        # 400, so one level would fit and the bound would be infinite; the
        # floor widens them to 4 * 16 / 400 and two levels agree
        v = integrate_panels(lambda x: np.exp(-x * x), (-8.0, 8.0), 1e-3)
        assert abs(v - np.sqrt(np.pi)) < 1e-12

    def test_unit_panels_shared_and_read_only(self):
        t, w = _unit_panels(5)
        assert _unit_panels(5)[0] is t
        assert not (t.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("count", [1, 3, 17, 256])
    def test_unit_panel_weights_match_tiled(self, count):
        # the np.tile construction the tables were first built with
        t, w = _unit_panels(count)
        assert w.tobytes() == np.tile(_GL_WEIGHTS / (2 * count), count).tobytes()
        assert t.shape == w.shape == (12 * count,)


class TestMatrixInvSqrt:
    def test_identity(self):
        M = matrix_inv_sqrt(np.eye(2))
        assert np.allclose(M, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        M = matrix_inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(M, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_k_matrix_case(self):
        K = k_matrix(Couplings(0.1j, 0.1j, 1.0), 1.0)
        M = matrix_inv_sqrt(K)
        assert np.linalg.norm(M @ M @ K - np.eye(2)) <= 1e-12

    def test_branch_cut(self):
        with pytest.raises(BranchError):
            matrix_inv_sqrt(np.diag([-1.0, 2.0]))

    def test_defective(self):
        with pytest.raises(BranchError):
            matrix_inv_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCountZeros:
    def test_single_linear(self):
        assert count_zeros(lambda k: k - (1 + 1j), ComplexRect(0, 2, 0, 2)) == 1

    def test_quadratic_upper(self):
        assert count_zeros(lambda k: k * k + 1, ComplexRect(-2, 2, 0.5, 2)) == 1

    def test_transfer_matrix_element(self):
        c = Couplings(0.3, -0.3, 1.0)
        f = lambda k: m22(c, k)
        n = count_zeros(f, ComplexRect(-1, 1, 0.01, 2))
        assert n == 1
        # cross-check by Newton refinement from a coarse grid of starts
        fdf = lambda k: m22_with_derivative(c, k)
        roots = set()
        for im in np.linspace(0.02, 1.0, 8):
            try:
                r = refine_root(fdf, complex(0.0, im))
            except Exception:
                continue
            if 0.01 < r.imag < 2 and abs(r.real) < 1:
                roots.add(round(r.real, 8) + 1j * round(r.imag, 8))
        assert len(roots) == 1

    def test_max_step_resolves_a_fast_phase(self):
        # e^{40ik} - 1/2 has 127 zeros above the real axis on Re k in
        # [-10, 10] (k = 2 pi j / 40 + i ln2 / 40); its phase turns 40 rad
        # per unit along the edges, so 64 samples alias and max_step =
        # pi/80 (a quarter turn) does not
        f = lambda k: np.exp(40j * k) - 0.5
        rect = ComplexRect(-10.0, 10.0, 0.001, 1.0)
        assert count_zeros(f, rect, np.pi / 80) == 127

    def test_too_many_samples_rejected(self):
        calls = []
        with pytest.raises(ContourError, match="too wide"):
            count_zeros(lambda k: calls.append(k) or k, ComplexRect(-1e9, 1e9, 1.0, 2.0), 1.0)
        assert calls == []

    def test_sample_count_past_the_float_range_rejected(self):
        # side / max_step overflows to inf: once an untyped OverflowError
        with pytest.raises(ContourError, match="too wide"):
            count_zeros(lambda k: k, ComplexRect(-1.0, 1.0, 0.5, 2.0), 1e-310)

    def test_zero_on_contour_rejected(self):
        # zero at k = 1 sits exactly on the right edge
        with pytest.raises(ContourError):
            count_zeros(lambda k: k - 1.0, ComplexRect(0, 1, -1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_value_rejected(self, bad):
        # a nan or inf on the contour once sent every phase step next to
        # it through 24 levels of bisection, 256 * 2**24 points for z * nan
        calls = []

        def f(k):
            calls.append(k)
            assert len(calls) == 1, "count_zeros bisected a non-finite value"
            return np.where(k.real > 0.9, bad, k - 0.5j)

        with pytest.raises(ContourError, match="non-finite"):
            count_zeros(f, ComplexRect(-1, 1, 0.1, 1))

    @pytest.mark.parametrize("max_step", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_max_step_rejected(self, max_step):
        # 0 once raised ZeroDivisionError and nan ValueError; -1 and inf
        # silently sampled 64 points per edge
        calls = []
        with pytest.raises(DomainError, match="max_step"):
            count_zeros(lambda k: calls.append(k) or k, ComplexRect(-1, 1, 0.5, 2), max_step)
        assert calls == []


class TestComplexRect:
    @pytest.mark.parametrize(
        "edges",
        [(-np.inf, 1, 0, 1), (-1, np.nan, 0, 1), (-1, 1, 0, np.inf), (-1, 1, -np.inf, np.inf),
         (-1e308, 1.7e308, 0, 1), (-1, 1, -1e308, 1e308)],
    )
    def test_non_finite_edge_or_side_rejected(self, edges):
        # once accepted: count_zeros then raised an untyped OverflowError
        # from its sample count
        with pytest.raises(DomainError, match="finite"):
            ComplexRect(*edges)


class TestRefineRoot:
    def test_quadratic(self):
        assert abs(refine_root(lambda k: (k * k + 1, 2 * k), 0.3 + 0.8j) - 1j) < 1e-12

    def test_exponential(self):
        fdf = lambda k: (np.exp(k) + 1, np.exp(k))
        assert abs(refine_root(fdf, 3j) - np.pi * 1j) < 1e-12

    def test_residual_contract(self):
        c = Couplings(0.3, -0.3, 1.0)
        r = refine_root(lambda k: m22_with_derivative(c, k), 0.1j)
        value, slope = m22_with_derivative(c, r)
        assert abs(value) <= 1e-10 * max(1.0, abs(slope) * abs(r))
        assert abs(m22(c, r)) <= 1e-10

    def test_one_call_per_step(self):
        # k^2 + 1 from 0.3 + 0.8i: every call is one Newton step but the
        # last, which reads the residual at the root
        calls = []

        def fdf(k):
            calls.append(k)
            return k * k + 1, 2 * k

        refine_root(fdf, 0.3 + 0.8j)
        assert all(isinstance(k, complex) for k in calls)
        steps = np.abs(np.diff(calls))
        assert steps[-1] <= 1e-14 * max(1.0, abs(calls[-1]))
        assert (steps[:-1] > 1e-14).all()

    def test_non_finite_stops_at_once(self):
        calls = []

        def fdf(k):
            calls.append(k)
            return complex("nan"), 1.0

        with pytest.raises(NoConvergenceError, match="non-finite value"):
            refine_root(fdf, 0.5j)
        assert calls == [0.5j]

    def test_non_finite_iterate_is_not_evaluated(self):
        # the first step overflows to an infinite iterate, which fdf never sees
        calls = []

        def fdf(k):
            calls.append(k)
            return 1e300, 1e-300

        with pytest.raises(NoConvergenceError, match="non-finite iterate"):
            refine_root(fdf, 0.5j)
        assert calls == [0.5j]

    def test_vanishing_derivative(self):
        with pytest.raises(NoConvergenceError, match="vanishing derivative"):
            refine_root(lambda k: (k * k + 1, 2 * k), 0.0)
