"""Distributional kernel algebra: conventions, evaluation, Dirac
reduction in pairings, Hermitian completion, serialization."""

import json

import numpy as np
import pytest

from ddscatter import (
    Couplings,
    DistributionalKernel,
    DomainError,
    GaussianPacket,
    KernelPrimitive,
    KernelTerm,
    SingularPointError,
    hermitian_completion,
    kernel_eval,
    kernel_pair,
)
from ddscatter.kernels import regular_part_grid
from ddscatter.numerics import integrate_1d


def P(kind, arg, shift=0.0, rate=0.0):
    return KernelPrimitive(kind, arg, shift, rate)


def one_factor(factor):
    """The kernel whose only term is 1 * factor, evaluated by kernel_eval."""
    kern = DistributionalKernel(terms=(KernelTerm(1.0, (factor,)),))
    return lambda x, y: kernel_eval(kern, x, y)


class TestPrimitives:
    def test_step_midpoint_convention(self):
        th = one_factor(P("heaviside", "x"))
        assert th(0.0, 1.0) == 0.5
        assert th(2.0, 1.0) == 1.0
        assert th(-2.0, 1.0) == 0.0

    def test_sign_zero_convention(self):
        s = one_factor(P("sign", "x-y"))
        assert s(1.0, 1.0) == 0.0
        assert s(2.0, 1.0) == 1.0

    def test_shift_and_rate(self):
        e = one_factor(P("exp_abs", "x+y", shift=-2.0, rate=0.5))
        assert abs(e(1.0, 2.0) - np.exp(-0.5 * 1.0)) < 1e-15

    def test_invalid_kind(self):
        with pytest.raises(DomainError):
            P("gaussian", "x")

    @pytest.mark.parametrize("shift,rate", [(np.nan, np.nan), (np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_rejected(self, shift, rate):
        with pytest.raises(DomainError):
            P("exp_abs", "x", shift, rate)

    def test_duplicate_dirac_direction_rejected(self):
        with pytest.raises(DomainError):
            KernelTerm(1.0, (P("dirac", "x-y"), P("dirac", "x-y", 1.0)))


class TestKernelEval:
    def test_identity_off_diagonal(self):
        ident = DistributionalKernel(identity_coefficient=1.0)
        assert kernel_eval(ident, 0.3, 0.7) == 0.0

    def test_identity_on_diagonal_raises(self):
        ident = DistributionalKernel(identity_coefficient=1.0)
        with pytest.raises(SingularPointError):
            kernel_eval(ident, 0.5, 0.5)

    def test_dirac_term_support_raises(self):
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (P("dirac", "x", -1.0), P("heaviside", "y"))),)
        )
        with pytest.raises(SingularPointError):
            kernel_eval(kern, 1.0, 0.3)
        assert kernel_eval(kern, 0.5, 0.3) == 0.0

    def test_regular_grid_matches_pointwise(self):
        kern = DistributionalKernel(
            terms=(
                KernelTerm(2.0 - 1j, (P("sign", "x-y"), P("exp_abs", "x+y", 1.0, 0.7))),
            )
        )
        xs = np.linspace(-2, 2, 7)
        G = regular_part_grid(kern, xs, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert abs(G[i, j] - kernel_eval(kern, float(x), float(y))) < 1e-14


class TestKernelPair:
    def test_identity_normalization(self):
        g = GaussianPacket(1.0, 0.7, -0.2)
        ident = DistributionalKernel(identity_coefficient=1.0)
        assert abs(kernel_pair(ident, g, g) - 1.0) < 1e-12

    def test_single_dirac_in_x(self):
        # delta(x - 1) * theta(y): int conj(g)(1) * int_0^inf g
        g = GaussianPacket(1.0)
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (P("dirac", "x", -1.0), P("heaviside", "y"))),)
        )
        lhs = kernel_pair(kern, g, g)
        rhs = np.conj(g(1.0)) * integrate_1d(g, 0.0, 14.0)
        assert abs(lhs - rhs) < 1e-12

    def test_diagonal_dirac(self):
        # delta(x-y) f(y) pairs to int conj(g) f g
        g = GaussianPacket(0.8, 0.3, 0.0)
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (P("dirac", "x-y"), P("exp_abs", "y", 0.0, 1.0))),)
        )
        lhs = kernel_pair(kern, g, g)
        rhs = integrate_1d(lambda y: abs(g(y)) ** 2 * np.exp(-abs(y)), -12, 12, points=[0.0])
        assert abs(lhs - rhs) < 1e-11

    def test_antidiagonal_dirac(self):
        # delta(x+y): int conj(g)(-y) g(y) dy
        g = GaussianPacket(1.1, 0.4, 0.3)
        kern = DistributionalKernel(terms=(KernelTerm(1.0, (P("dirac", "x+y"),)),))
        lhs = kernel_pair(kern, g, g)
        rhs = integrate_1d(lambda y: np.conj(g(-y)) * g(y), -16, 16)
        assert abs(lhs - rhs) < 1e-11

    def test_double_dirac_jacobian(self):
        # delta(x-y) delta(x+y) = point mass at origin with weight 1/2
        g = GaussianPacket(1.0)
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (P("dirac", "x-y"), P("dirac", "x+y"))),)
        )
        lhs = kernel_pair(kern, g, g)
        assert abs(lhs - 0.5 * abs(g(0.0)) ** 2) < 1e-13

    def test_two_dimensional_term(self):
        # brute 2D quadrature cross-check, split at the |x-y| kink
        g = GaussianPacket(1.0)
        kern = DistributionalKernel(
            terms=(KernelTerm(1.5, (P("exp_abs", "x-y", 0.0, 1.0),)),)
        )
        lhs = kernel_pair(kern, g, g)
        from scipy.integrate import dblquad

        f = lambda y, x: (np.conj(g(x)) * g(y)).real * 1.5 * np.exp(-abs(x - y))
        lower, _ = dblquad(f, -8, 8, -8, lambda x: x, epsabs=1e-12, epsrel=1e-12)
        upper, _ = dblquad(f, -8, 8, lambda x: x, 8, epsabs=1e-12, epsrel=1e-12)
        assert abs(lhs - (lower + upper)) < 1e-8

    def test_derivative_flags_rejected(self):
        g = GaussianPacket(1.0)
        kern = DistributionalKernel(second_derivative_flag=True)
        with pytest.raises(DomainError):
            kernel_pair(kern, g, g)


class TestCompletionAndSerialization:
    def test_completion_hermitian(self):
        half = DistributionalKernel(
            identity_coefficient=0.5,
            terms=(
                KernelTerm(0.3 + 0.2j, (P("sign", "x-y"), P("heaviside", "y", -1.0))),
                KernelTerm(1j, (P("exp_abs", "x-y", 4.0, 0.8), P("heaviside", "x", 1.0))),
            ),
        )
        full = hermitian_completion(half)
        assert full.identity_coefficient == 1.0
        rng = np.random.default_rng(8)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, 2)
            assert abs(kernel_eval(full, x, y) - np.conj(kernel_eval(full, y, x))) < 1e-15

    def test_round_trip(self):
        c = Couplings(0.1j, -0.1j, 1.0)
        from ddscatter import eta1_bounded

        kern = eta1_bounded(c)
        rec = kern.to_records()
        blob = json.dumps(rec)
        back = DistributionalKernel.from_records(json.loads(blob))
        assert back == kern
