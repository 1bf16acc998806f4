"""Property checks of the panel pairing over random kernels and packets
(hypothesis with a derandomized, bounded search)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddscatter import (
    DistributionalKernel,
    GaussianPacket,
    KernelPrimitive,
    KernelTerm,
    hermitian_completion,
    kernel_pair,
    kernels,
)

from pair_oracle import oracle_pair

# derandomized, so every run draws the same examples; the oracle costs
# up to a fifth of a second per example, which bounds its count
SETTINGS = settings(derandomize=True, deadline=None)

REGULAR_KINDS = ["const", "sign", "heaviside", "exp_abs", "abs", "linear"]


def primitives(kinds):
    return st.builds(
        KernelPrimitive,
        kind=st.sampled_from(kinds),
        argument=st.sampled_from(["x", "y", "x-y", "x+y"]),
        shift=st.floats(-2.0, 2.0),
        rate=st.floats(0.3, 2.0),
    )


coefficients = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
packets = st.builds(
    GaussianPacket,
    sigma=st.floats(0.6, 1.2),
    k0=st.floats(-1.0, 1.0),
    x0=st.floats(-0.5, 0.5),
)


@settings(SETTINGS, max_examples=6)
@given(coefficients, st.lists(primitives(REGULAR_KINDS), min_size=1, max_size=3), packets, packets)
def test_dirac_free_kernels_match_oracle(coefficient, factors, bra, ket):
    kern = DistributionalKernel(terms=(KernelTerm(coefficient, tuple(factors)),))
    # a fixed box keeps the oracle's cost bounded; both integrate over it
    # (patched here, as hypothesis rejects the monkeypatch fixture)
    with mock.patch.object(kernels, "_infer_support", lambda bra, ket: (-6.0, 6.0)):
        got = kernel_pair(kern, bra, ket)
    want = oracle_pair(kern, bra, ket, support=(-6.0, 6.0))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


@settings(SETTINGS, max_examples=6)
@given(
    coefficients,
    primitives(REGULAR_KINDS),
    st.sampled_from(["x", "y", "x-y", "x+y"]),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    packets,
    packets,
)
def test_window_kernels_match_oracle(coefficient, factor, argument, s1, s2, bra, ket):
    # c F theta(v + s1) - c F theta(v + s2) cancels outside the window
    # between the two steps, so the pairing skips pieces there
    window = [
        KernelTerm(sign * coefficient, (factor, KernelPrimitive("heaviside", argument, shift)))
        for sign, shift in ((1.0, s1), (-1.0, s2))
    ]
    kern = DistributionalKernel(terms=tuple(window))
    with mock.patch.object(kernels, "_infer_support", lambda bra, ket: (-6.0, 6.0)):
        got = kernel_pair(kern, bra, ket)
    want = oracle_pair(kern, bra, ket, support=(-6.0, 6.0))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def _mirrorable(factors):
    # a heaviside in x-y has no mirror image within one term, and a term
    # takes at most one Dirac factor per direction
    diracs = [f.argument for f in factors if f.kind == "dirac"]
    return len(diracs) == len(set(diracs)) and not any(
        f.kind == "heaviside" and f.argument == "x-y" for f in factors
    )


mirrorable_factors = st.lists(
    primitives(REGULAR_KINDS + ["dirac"]), min_size=1, max_size=3
).filter(_mirrorable)


@settings(SETTINGS, max_examples=20)
@given(
    st.lists(st.tuples(coefficients, mirrorable_factors), min_size=1, max_size=3),
    packets,
    packets,
)
def test_hermitian_completion_pairs_hermitian(terms, u, v):
    half = DistributionalKernel(
        identity_coefficient=0.5, terms=tuple(KernelTerm(c, tuple(fs)) for c, fs in terms)
    )
    full = hermitian_completion(half)
    uv, vu = kernel_pair(full, u, v), kernel_pair(full, v, u)
    assert abs(uv - np.conj(vu)) <= 1e-12
