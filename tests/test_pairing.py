"""Panel Gauss-Legendre pairing: agreement with the adaptive-quadrature
oracle and with a tighter spec, the number of panel levels it takes,
error reporting past the panel budget, and the kernel dump's agreement
with pointwise evaluation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddscatter import (
    Couplings,
    DistributionalKernel,
    GaussianPacket,
    KernelPrimitive,
    KernelTerm,
    QuadratureError,
    QuadratureSpec,
    SingularPointError,
    eta1_bounded,
    h_kernel,
    kernel_eval,
    kernel_pair,
    kernels,
    numerics,
    x_kernel,
)
from ddscatter.cli import main

from pair_oracle import oracle_pair

C = Couplings(0.13 + 0.1j, -0.1 - 0.1j, 1.0)
BRA = GaussianPacket(0.8, 0.3, 0.2)
KET = GaussianPacket(0.7, -0.2, -0.3)

packets = st.builds(
    GaussianPacket, sigma=st.floats(0.3, 4.0), k0=st.floats(-3.0, 3.0), x0=st.floats(-4.0, 4.0)
)


class TestAgainstOracle:
    @pytest.mark.parametrize("build", [eta1_bounded, x_kernel], ids=["eta1_bounded", "x_kernel"])
    def test_regular_and_diagonal_terms(self, build):
        # the oracle's cost grows with the box, so both integrate a fixed one
        kern = build(C)
        got = kernel_pair(kern, BRA, KET, support=(-6.0, 6.0))
        want = oracle_pair(kern, BRA, KET, support=(-6.0, 6.0))
        assert abs(got - want) <= 1e-9

    def test_single_dirac_window_term(self):
        # (Im z+)^2/8 delta(x - a) theta(y + a), one of h_kernel's windows
        window = [t for t in h_kernel(C).terms if len(t.dirac_factors) == 1][0]
        kern = DistributionalKernel(terms=(window,))
        assert abs(kernel_pair(kern, BRA, KET) - oracle_pair(kern, BRA, KET)) <= 1e-9


class TestPanelCost:
    @pytest.mark.parametrize("build", [eta1_bounded, x_kernel], ids=["eta1_bounded", "x_kernel"])
    def test_two_levels_suffice(self, build, monkeypatch):
        # the coarsest panels, 4 min(sigma, 1/|k0|) wide, already meet the
        # spec: every integral stops at its first halving.  The plane rule
        # calls kernels._converge; the line rule reaches numerics._converge
        # through integrate_panels
        levels = {}
        converge = numerics._converge

        def counted(rule, base_panels, spec):
            seen = levels.setdefault(rule.__qualname__.partition(".")[0], [])

            def traced(level):
                seen.append(level)
                return rule(level)

            return converge(traced, base_panels, spec)

        monkeypatch.setattr(kernels, "_converge", counted)
        monkeypatch.setattr(numerics, "_converge", counted)
        kernel_pair(build(C), BRA, KET)
        assert levels == {"integrate_panels": [0, 1], "_pair_plane": [0, 1]}

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.sampled_from([eta1_bounded, x_kernel]), packets, packets)
    def test_agrees_with_a_tighter_spec(self, build, bra, ket):
        # two levels agreeing at the wide start must not hide an error: a
        # 1e-13 spec adds levels and moves the value by less than 1e-10;
        # the fixed box bounds the cost of sigma = 4 with |k0| = 3
        kern, box = build(C), (-8.0, 8.0)
        value = kernel_pair(kern, bra, ket, support=box)
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        assert abs(value - kernel_pair(kern, bra, ket, tight, support=box)) <= 1e-10 * max(
            1.0, abs(value)
        )


class TestPanelBudget:
    @pytest.mark.parametrize(
        "kern,max_subdivisions",
        [
            (DistributionalKernel(identity_coefficient=1.0), 400),
            (DistributionalKernel(terms=eta1_bounded(C).terms), 64),
        ],
        ids=["line", "plane"],
    )
    def test_unreachable_tolerance(self, kern, max_subdivisions):
        # the error carries the estimate of the one integral that failed
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=max_subdivisions)
        with pytest.raises(QuadratureError) as info:
            kernel_pair(kern, BRA, KET, spec)
        assert 0 < info.value.error_bound < 1e-12
        assert abs(info.value.estimate - kernel_pair(kern, BRA, KET)) < 1e-12

    def test_too_steep_for_the_budget(self):
        # exp(-1e4 |x - y|) would need panels far below the budget's width:
        # two levels at the coarsest width that fits, then a finite bound
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (KernelPrimitive("exp_abs", "x-y", 0.0, 1e4),)),)
        )
        with pytest.raises(QuadratureError) as info:
            kernel_pair(kern, BRA, KET)
        assert np.isfinite(info.value.error_bound) and np.isfinite(info.value.estimate)

    def test_single_subdivision(self):
        # one level fits, so there is no error estimate at all
        with pytest.raises(QuadratureError) as info:
            kernel_pair(eta1_bounded(C), BRA, KET, QuadratureSpec(max_subdivisions=1))
        assert info.value.error_bound == np.inf
        assert np.isfinite(info.value.estimate)


@pytest.mark.parametrize(
    "which,flags",
    [
        ("eta1", ["--im-z", "0.1", "--re-z", "0.2"]),
        ("appendixA", ["--r-plus", "1", "--r-minus", "0.8", "--eps-plus", "0.1",
                       "--gamma", "1.1"]),
        ("X", ["--im-z", "0.3"]),
    ],
)
def test_kernel_dump_matches_pointwise_eval(tmp_path, which, flags):
    # the grid dump is the kernel_eval text of every point, nan on Dirac lines
    out = tmp_path / "kern.csv"
    assert main(["kernel", "--which", which, *flags, "--grid=-3:3:25", "--out", str(out)]) == 0
    with open(str(out) + ".terms.json") as fh:
        kern = DistributionalKernel.from_records(json.load(fh))
    lines = ["x,y,re,im"]
    for x in np.linspace(-3, 3, 25):
        for y in np.linspace(-3, 3, 25):
            try:
                v = kernel_eval(kern, float(x), float(y))
                re, im = f"{v.real:.12g}", f"{v.imag:.12g}"
            except SingularPointError:
                re, im = "nan", "nan"
            lines.append(f"{x:.12g},{y:.12g},{re},{im}")
    assert sum(line.endswith("nan,nan") for line in lines) >= 25
    assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
