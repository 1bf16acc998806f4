"""Panel Gauss-Legendre pairing: agreement with the adaptive-quadrature
oracle and with a tighter panel tolerance, the packets' boxes and panel
widths, the number of panel levels it takes, the pieces it skips and
their evaluator, error reporting past the panel budget, and the kernel
dump's agreement with pointwise evaluation.

Tests that need another tolerance patch numerics._PANEL_SPEC, and tests
that need a fixed box patch kernels._infer_support."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    hermitianize,
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
    def test_regular_and_diagonal_terms(self, build, monkeypatch):
        # the oracle's cost grows with the box, so both integrate a fixed one
        kern = build(C)
        monkeypatch.setattr(kernels, "_infer_support", lambda bra, ket: (-6.0, 6.0))
        got = kernel_pair(kern, BRA, KET)
        want = oracle_pair(kern, BRA, KET, support=(-6.0, 6.0))
        assert abs(got - want) <= 1e-9

    def test_single_dirac_window_term(self):
        # (Im z+)^2/8 delta(x - a) theta(y + a), one of h_kernel's windows
        window = [t for t in h_kernel(C).terms if len(t.dirac_factors) == 1][0]
        kern = DistributionalKernel(terms=(window,))
        assert abs(kernel_pair(kern, BRA, KET) - oracle_pair(kern, BRA, KET)) <= 1e-9


class TestPanelWidth:
    @pytest.mark.parametrize(
        "packet,box,width",
        [
            (GaussianPacket(0.6, 0.0, 1.5), (-3.3, 6.3), 4 * 0.6),
            (GaussianPacket(1.0, -3.0, 0.0), (-8.0, 8.0), 4 / 3),
            (BRA, (-6.2, 6.6), 4 * 0.8),
        ],
        ids=["k0=0", "sigma=1,k0=-3", "BRA"],
    )
    def test_packet_box_and_width(self, packet, box, width):
        # the box is x0 +- 8 sigma at the 1e-10 panel tolerance; the width
        # 4 min(sigma, 1/|k0|)
        assert packet.box == pytest.approx(box, abs=1e-14)
        assert packet.panel_width == width

    def test_box_follows_the_tolerance(self, monkeypatch):
        # B = ceil(sqrt(2 ln(1/tol))) + 1: 9 sigma at 1e-13
        monkeypatch.setattr(numerics, "_PANEL_SPEC", QuadratureSpec(1e-13, 1e-13))
        assert BRA.box == pytest.approx((0.2 - 9 * 0.8, 0.2 + 9 * 0.8), abs=1e-14)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(packets)
    def test_tail_outside_the_box(self, packet):
        # the mass of |psi| outside x0 +- B sigma is
        # pi^-1/4 sqrt(2 pi sigma) erfc(B / sqrt 2), below the tolerance
        lo, hi = packet.box
        b = (hi - packet.x0) / packet.sigma
        assert packet.x0 - lo == pytest.approx(hi - packet.x0, rel=1e-12)
        tail = math.pi ** -0.25 * math.sqrt(2 * math.pi * packet.sigma) * math.erfc(b / math.sqrt(2))
        assert tail <= numerics._PANEL_SPEC.abs_tol

    def test_smaller_packet_width(self):
        # eta1_bounded has no decay length: the narrower packet sets it
        box = kernels._infer_support(BRA, KET)
        width = kernels._panel_width(eta1_bounded(C), (BRA, KET), *box)
        assert width == min(BRA.panel_width, KET.panel_width) == 4 * 0.7

    def test_decay_length(self):
        # exp(-10 |x - y|) decays over 8/rate = 0.8, below both packets
        kern = DistributionalKernel(
            terms=(KernelTerm(1.0, (KernelPrimitive("exp_abs", "x-y", 0.0, 10.0),)),)
        )
        box = kernels._infer_support(BRA, KET)
        assert kernels._panel_width(kern, (BRA, KET), *box) == 0.8

    def test_budget_floor(self):
        # two levels of 4 (hi - lo) / 400 wide panels fit the budget
        assert kernels._panel_width(eta1_bounded(C), (BRA, KET), -1e4, 1e4) == 200.0


class TestPanelCost:
    @pytest.mark.parametrize("build", [eta1_bounded, x_kernel], ids=["eta1_bounded", "x_kernel"])
    def test_two_levels_suffice(self, build, monkeypatch):
        # the coarsest panels, 4 min(sigma, 1/|k0|) wide, already meet the
        # spec: every integral stops at its first halving.  The plane rule
        # calls kernels._converge; the line rule reaches numerics._converge
        # through integrate_panels
        levels = {}
        converge = numerics._converge

        def counted(rule, base_panels):
            seen = levels.setdefault(rule.__qualname__.partition(".")[0], [])

            def traced(level):
                seen.append(level)
                return rule(level)

            return converge(traced, base_panels)

        monkeypatch.setattr(kernels, "_converge", counted)
        monkeypatch.setattr(numerics, "_converge", counted)
        kernel_pair(build(C), BRA, KET)
        assert levels == {"integrate_panels": [0, 1], "_pair_plane": [0, 1]}

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(packets, packets)
    def test_line_pairings_stop_at_first_halving(self, bra, ket):
        # line panels start at the scale of the two packets' product, so
        # every line of x_kernel and of h_kernel's windows meets the spec
        # at its first halving (hypothesis rejects monkeypatch)
        lines = [t for t in x_kernel(C).terms if t.dirac_factors]
        lines += [t for t in h_kernel(C).terms if len(t.dirac_factors) == 1]
        levels = _trace_levels(
            lambda: kernel_pair(DistributionalKernel(terms=tuple(lines)), bra, ket)
        )
        assert len(levels) == 5 and all(seen == [0, 1] for seen in levels)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(packets)
    def test_kinetic_integral_stops_at_first_halving(self, packet):
        # |psi'|^2 is sigma/sqrt2 wide with no phase: panels 4 sigma/sqrt2
        # wide already meet the spec, and the value is k0^2 + 1/(2 sigma^2)
        kinetic = []
        levels = _trace_levels(lambda: kinetic.append(hermitianize._kinetic(packet)))
        assert levels == [[0, 1]]
        exact = packet.k0**2 + 0.5 / packet.sigma**2
        assert abs(kinetic[0] - exact) <= 1e-10 * max(1.0, exact)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.sampled_from([eta1_bounded, x_kernel]), packets, packets)
    def test_agrees_with_a_tighter_spec(self, build, bra, ket):
        # two levels agreeing at the wide start must not hide an error: a
        # 1e-13 spec adds levels and moves the value by less than 1e-10;
        # the fixed box bounds the cost of sigma = 4 with |k0| = 3
        # (hypothesis rejects function-scoped fixtures such as monkeypatch)
        kern, box = build(C), (-8.0, 8.0)
        with mock.patch.object(kernels, "_infer_support", lambda bra, ket: box):
            value = kernel_pair(kern, bra, ket)
            tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
            with mock.patch.object(numerics, "_PANEL_SPEC", tight):
                tight_value = kernel_pair(kern, bra, ket)
        assert abs(value - tight_value) <= 1e-10 * max(1.0, abs(value))


def _trace_levels(call):
    """The levels of each numerics._converge call (the line rule's) that
    call() makes, one list per integral."""
    levels = []
    converge = numerics._converge

    def counted(rule, base_panels):
        seen = []
        levels.append(seen)

        def traced(level):
            seen.append(level)
            return rule(level)

        return converge(traced, base_panels)

    with mock.patch.object(numerics, "_converge", counted):
        call()
    return levels


def _record_nodes(monkeypatch):
    """The (x, y) node arrays of every kernels._weight call, broadcast."""
    nodes = []
    weight = kernels._weight

    def recorded(products, x, y):
        nodes.append(np.broadcast_arrays(x, y))
        return weight(products, x, y)

    monkeypatch.setattr(kernels, "_weight", recorded)
    return nodes


class TestPieces:
    # the pair-kernels benchmark packets, without their per-seed jitter
    PACKETS = (GaussianPacket(1.1, 0.3, 0.2), GaussianPacket(0.9, -0.2, -0.3))

    def test_window_pairing_skips_the_dead_cells(self, monkeypatch):
        # eta1's window vanishes outside |x + y| < 2a: about a quarter of
        # the 50,652 nodes of the whole square remain
        nodes = _record_nodes(monkeypatch)
        kernel_pair(eta1_bounded(C), *self.PACKETS)
        assert sum(x.size for x, _ in nodes) <= 15000

    @pytest.mark.parametrize("build", [eta1_bounded, x_kernel], ids=["eta1_bounded", "x_kernel"])
    def test_plane_nodes_lie_in_the_window(self, build, monkeypatch):
        kern = build(C)
        bra, ket = self.PACKETS
        lo, hi = kernels._infer_support(bra, ket)
        h = kernels._panel_width(kern, self.PACKETS, lo, hi)
        nodes = _record_nodes(monkeypatch)
        kernels._pair_plane(kern._regular(), (self.PACKETS,), lo, hi, h)
        assert nodes
        for x, y in nodes:
            assert np.all(np.abs(x + y) < 2 * C.a)

    def test_cancelling_terms_evaluate_no_node(self, monkeypatch):
        step = (KernelPrimitive("sign", "x-y"), KernelPrimitive("heaviside", "x+y", 2.0))
        kern = DistributionalKernel(terms=(KernelTerm(0.3j, step), KernelTerm(-0.3j, step)))
        nodes = _record_nodes(monkeypatch)
        value = kernel_pair(kern, BRA, KET)
        assert value == 0j and not nodes

    @pytest.mark.parametrize("argument,shift", [("x-y", 0.3), ("x+y", -1.7), ("x", 0.7), ("y", -0.4)])
    def test_factor_on_its_own_dirac_line(self, argument, shift):
        # on delta(u) a factor of the same u reads u = 0 exactly, as the
        # conventions say (sign 0, theta 1/2), not the rounding of x and y
        dirac = KernelPrimitive("dirac", argument, shift)
        line = kernel_pair(DistributionalKernel(terms=(KernelTerm(1.0, (dirac,)),)), BRA, KET)
        for kind, want in (("sign", 0.0), ("heaviside", 0.5 * line)):
            factor = KernelPrimitive(kind, argument, shift)
            kern = DistributionalKernel(terms=(KernelTerm(1.0, (dirac, factor)),))
            assert kernel_pair(kern, BRA, KET) == want

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                st.lists(
                    st.builds(
                        KernelPrimitive,
                        kind=st.sampled_from(["const", "sign", "heaviside", "exp_abs", "abs", "linear"]),
                        argument=st.sampled_from(["x", "y", "x-y", "x+y"]),
                        shift=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0]),
                        rate=st.floats(0.3, 2.0),
                    ),
                    min_size=1, max_size=3,
                ),
                st.booleans(),
            ),
            min_size=1, max_size=3,
        ),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
    )
    def test_piece_evaluator_is_kernel_eval(self, terms, x, y):
        # off every kink line, the evaluator of the piece holding (x, y)
        # is kernel_eval there, bit for bit; a term drawn with True is
        # followed by its negation, so some pieces cancel
        kern = DistributionalKernel(terms=tuple(
            t
            for c, fs, cancel in terms
            for t in ((KernelTerm(c, tuple(fs)), KernelTerm(-c, tuple(fs))) if cancel
                      else (KernelTerm(c, tuple(fs)),))
        ))
        arrays = kern._regular()
        for cx, cy, shift in arrays.lines:
            assume(abs(cx * x + cy * y + shift) > 1e-9)
        want = kernel_eval(kern, x, y)
        piece = arrays.piece(arrays.signs(x, y))
        if piece is None:
            # the terms cancel identically: kernel_eval leaves rounding
            scale = sum(abs(kernel_eval(DistributionalKernel(terms=(t,)), x, y)) for t in kern.terms)
            assert abs(want) <= 1e-15 * scale
        else:
            assert np.complex128(piece(x, y)).tobytes() == np.complex128(want).tobytes()


class TestPanelBudget:
    @pytest.mark.parametrize(
        "kern,max_subdivisions",
        [
            (DistributionalKernel(identity_coefficient=1.0), 400),
            (DistributionalKernel(terms=eta1_bounded(C).terms), 64),
        ],
        ids=["line", "plane"],
    )
    def test_unreachable_tolerance(self, kern, max_subdivisions, monkeypatch):
        # the error carries the estimate of the one integral that failed
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=max_subdivisions)
        with monkeypatch.context() as m, pytest.raises(QuadratureError) as info:
            m.setattr(numerics, "_PANEL_SPEC", spec)
            kernel_pair(kern, BRA, KET)
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

    def test_single_subdivision(self, monkeypatch):
        # one level fits, so there is no error estimate at all
        monkeypatch.setattr(numerics, "_PANEL_SPEC", QuadratureSpec(max_subdivisions=1))
        with pytest.raises(QuadratureError) as info:
            kernel_pair(eta1_bounded(C), BRA, KET)
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
