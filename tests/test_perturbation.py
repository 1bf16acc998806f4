"""Finite-dimensional perturbative metric engine.

The cubic scaling of the conjugated-H and eta residuals and the
first-order and two-forms identities are registry checks
(``perturbation.*`` in ``ddscatter.verify.CHECKS``)."""

import json
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddscatter import (
    Couplings,
    DegeneracyError,
    DomainError,
    InconsistencyError,
    NonQuasiHermitianError,
    PerturbedOperator,
    QExpansion,
    conjugated_h,
    equivalent_h,
    eta_from_q,
    map_observable,
    solve_q1,
    solve_q2,
)
from ddscatter.grid import discretized_hamiltonian, uniform_grid
from ddscatter.kernels import regular_part_grid
from ddscatter.metric import eta1_bounded
from ddscatter.perturbation import (
    _THETA_12,
    _exp_pair,
    matrix_from_json,
    matrix_to_json,
    run_instance,
)
from ddscatter.verify import check_perturbation_scalings, solvable_instance


def rotated(p, seed):
    """The two-generator instance p in a random complex basis U, with its
    generators mixed so that both couplings are complex: the operator
    U H U^dag, whose H0 is not diagonal and whose matrices are all complex.

    Returns the rotated instance and U."""
    rng = np.random.default_rng(seed)
    n = len(p.h0)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    def rot(M):
        M = U @ M @ U.conj().T
        return (M + M.conj().T) / 2

    (S, T), (zs, zt) = p.generators, p.couplings
    # zs S + zt T = z (S + T) + w (S - T) with z, w = (zs +- zt) / 2
    z, w = (zs + zt) / 2, (zs - zt) / 2
    return PerturbedOperator(rot(p.h0), (rot(S + T), rot(S - T)), (z, w)), U


def solve_all(p):
    q1 = solve_q1(p)
    q2 = solve_q2(p, q1)
    return q1, q2, equivalent_h(p, q1), eta_from_q(q1, q2)


class TestSolveQ1:
    def test_real_couplings_give_zero(self):
        rng = np.random.default_rng(21)
        H0 = np.diag(rng.normal(size=5))
        A = rng.normal(size=(5, 5))
        p = PerturbedOperator(H0, ((A + A.T) / 2,), (0.02,))
        q1 = solve_q1(p)
        assert np.linalg.norm(q1) == 0.0

    def test_two_level_explicit(self):
        # H0 = diag(0, 1), H1 = sigma_x, coupling i*eps
        eps = 1e-3
        H0 = np.diag([0.0, 1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = PerturbedOperator(H0, (sx,), (1j * eps,))
        q1 = solve_q1(p)
        # off-diagonal solve gives Q1 = -2 eps sigma_y
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        assert np.linalg.norm(q1 - (-2 * eps) * sy) < 1e-12
        resid = np.linalg.norm(H0 @ q1 - q1 @ H0 + 2 * p.h1_antihermitian)
        assert resid <= 1e-12

    def test_hermiticity_random(self):
        for seed in range(5):
            p = solvable_instance(6, 1e-2, seed)
            q1 = solve_q1(p)
            assert np.linalg.norm(q1 - q1.conj().T) <= 1e-12

    def test_diagonal_anti_hermitian_rejected(self):
        H0 = np.diag([0.0, 1.0])
        gen = np.diag([1.0, -1.0])  # nonzero diagonal in the eigenbasis
        p = PerturbedOperator(H0, (gen,), (1e-3j,))
        with pytest.raises(NonQuasiHermitianError):
            solve_q1(p)

    def test_coupled_degenerate_rejected(self):
        H0 = np.diag([1.0, 1.0 + 1e-12, 3.0])
        gen = np.zeros((3, 3))
        gen[0, 1] = gen[1, 0] = 1.0
        p = PerturbedOperator(H0, (gen,), (1e-3j,))
        with pytest.raises(DegeneracyError):
            solve_q1(p)


class TestSolveQ2:
    def test_hermitian_perturbation_gives_zero(self):
        rng = np.random.default_rng(22)
        H0 = np.diag(rng.normal(size=5))
        A = rng.normal(size=(5, 5))
        p = PerturbedOperator(H0, ((A + A.T) / 2,), (0.02,))
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        assert np.linalg.norm(q2) == 0.0

    def test_commutator_residual(self):
        p = solvable_instance(4, 1e-2, 23)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        R = (
            -(p.h1 @ q1 - q1 @ p.h1)
            - 0.5 * ((p.h0 @ q1 - q1 @ p.h0) @ q1 - q1 @ (p.h0 @ q1 - q1 @ p.h0))
        )
        assert np.linalg.norm(p.h0 @ q2 - q2 @ p.h0 - R) <= 1e-10

    def test_solvable_class_diagonal_vanishes(self):
        # brute force over random instances in the structured class
        for seed in range(10):
            p = solvable_instance(6, 1e-2, 100 + seed)
            q1 = solve_q1(p)
            R = (
                -(p.h1 @ q1 - q1 @ p.h1)
                - 0.5 * ((p.h0 @ q1 - q1 @ p.h0) @ q1 - q1 @ (p.h0 @ q1 - q1 @ p.h0))
            )
            E, V = np.linalg.eigh(p.h0)
            diag = np.diag(V.conj().T @ R @ V)
            assert np.max(np.abs(diag)) <= 1e-12

    def test_generic_mixed_coupling_rejected(self):
        # one complex coupling with both parts nonzero: the second-order
        # energy shift is complex and the solvability diagonal is nonzero
        rng = np.random.default_rng(24)
        H0 = np.diag(np.sort(rng.normal(size=5)))
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H1 = (A + A.conj().T) / 2
        E, V = np.linalg.eigh(H0)
        H1e = V.conj().T @ H1 @ V
        np.fill_diagonal(H1e, 0)
        H1 = V @ H1e @ V.conj().T
        p = PerturbedOperator(H0, (H1,), (1e-2 + 1e-2j,))
        q1 = solve_q1(p)
        with pytest.raises(InconsistencyError):
            solve_q2(p, q1)


class TestEquivalentH:
    def test_real_couplings_identity(self):
        rng = np.random.default_rng(25)
        H0 = np.diag(rng.normal(size=5))
        A = rng.normal(size=(5, 5))
        p = PerturbedOperator(H0, ((A + A.T) / 2,), (0.05,))
        q1 = solve_q1(p)
        assert np.linalg.norm(equivalent_h(p, q1) - p.total) <= 1e-14

    def test_formula_exactly_hermitian(self):
        p = solvable_instance(6, 1e-2, 26)
        h = equivalent_h(p, solve_q1(p))
        assert np.linalg.norm(h - h.conj().T) == 0.0

    def test_spectrum_matches_real_parts(self):
        p = solvable_instance(6, 1e-2, 28)
        q1 = solve_q1(p)
        h = equivalent_h(p, q1)
        eh = np.sort(np.linalg.eigvalsh(h))
        eH = np.sort(np.linalg.eigvals(p.total).real)
        assert np.max(np.abs(eh - eH)) <= 20 * (1e-2) ** 3


class TestEtaAndObservables:
    def test_zero_q_identity(self):
        eta = eta_from_q(np.zeros((4, 4)))
        assert np.allclose(eta, np.eye(4))
        o = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(map_observable(o, np.zeros((3, 3)), np.zeros((3, 3))), o)

    def test_identity_observable_fixed(self):
        p = solvable_instance(5, 1e-2, 32)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        O = map_observable(np.eye(5), q1, q2)
        assert np.allclose(O, np.eye(5), atol=1e-15)

    def test_eta_positive(self):
        for seed in range(5):
            p = solvable_instance(5, 5e-2, 40 + seed)
            q1 = solve_q1(p)
            q2 = solve_q2(p, q1)
            w = np.linalg.eigvalsh(eta_from_q(q1, q2))
            assert np.all(w > 0)

    def test_eta_inner_product_positive(self):
        rng = np.random.default_rng(33)
        p = solvable_instance(5, 5e-2, 33)
        eta = eta_from_q(solve_q1(p), None)
        for _ in range(50):
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            assert (v.conj() @ eta @ v).real > 0

    def test_exponential_pair_of_real_matrix_inverts(self):
        # a real A gives a real pair, each factor the other's inverse
        rng = np.random.default_rng(36)
        B = rng.normal(size=(6, 6))
        exp_a, exp_minus_a = _exp_pair(0.1 * (B + B.T))
        assert exp_a.dtype == exp_minus_a.dtype == float
        assert np.linalg.norm(exp_a @ exp_minus_a - np.eye(6)) <= 1e-12

    def test_expansion_rejects_non_hermitian_q(self):
        q = np.zeros((3, 3))
        q[0, 1] = 1.0
        with pytest.raises(DomainError, match="Hermitian"):
            QExpansion(q, np.zeros((3, 3)))
        with pytest.raises(DomainError, match="Hermitian"):
            QExpansion(np.zeros((3, 3)), 1j * np.eye(3))
        with pytest.raises(DomainError, match="shape"):
            QExpansion(np.zeros((3, 3)), np.zeros((2, 2)))

    def test_caller_writes_do_not_reach_the_expansion(self):
        # Q1 and Q2 are the expansion's own: a write into the caller's
        # arrays, before or after the decomposition is cached, changes
        # neither eta nor rho H rho^{-1}
        p = solvable_instance(5, 5e-2, 37)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        kept1, kept2 = q1.copy(), q2.copy()
        want = conjugated_h(p, QExpansion(kept1, kept2))
        q = QExpansion(q1, q2)
        q1[0, 1] += 1.0
        first = conjugated_h(p, q)
        q2[1, 0] += 1.0
        assert np.array_equal(first, want)
        assert np.array_equal(conjugated_h(p, q), want)
        assert np.array_equal(q.q1, kept1) and np.array_equal(q.q2, kept2)
        with pytest.raises(ValueError, match="read-only"):
            q.q1[0, 0] = 1.0

    def test_observable_pseudo_hermiticity_cubic(self):
        rng = np.random.default_rng(35)
        C = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        o = (C + C.conj().T) / 2

        def resid(z):
            p = solvable_instance(6, z, 35)
            q1 = solve_q1(p)
            q2 = solve_q2(p, q1)
            O = map_observable(o, q1, q2)
            eta = eta_from_q(q1, q2)
            return np.linalg.norm(O.conj().T - eta @ O @ np.linalg.inv(eta))

        assert resid(1e-2) / resid(5e-3) >= 6.0


def oracle_exp_pair(A, t=1.0):
    """(V e^{tw} V^dag, V e^{-tw} V^dag) from one eigh of the Hermitian A:
    the route eta and rho were first computed by, kept as the oracle for
    the Taylor polynomial that replaced it."""
    w, V = np.linalg.eigh(A)
    Vh = V.conj().T
    return (V * np.exp(t * w)) @ Vh, (V * np.exp(-t * w)) @ Vh


class TestExponentials:
    """_exp_pair, the one route to eta^{+-1} and rho^{+-1}."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        # 0.2, 0.5, 1, 2, 4 and 8 take eta through s = 0 to 5 squarings,
        # and rho through 0 to 4
        norm=st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0]) | st.floats(0.0, 9.0),
        complex_q=st.booleans(),
    )
    def test_matches_eigh_oracle(self, n, seed, norm, complex_q):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        if complex_q:
            M = M + 1j * rng.normal(size=(n, n))
        Q = (M + M.conj().T) / 2
        Q *= norm / np.linalg.norm(Q, 1)
        got = _exp_pair(-Q) + _exp_pair(-Q / 2)
        want = oracle_exp_pair(-Q) + oracle_exp_pair(-Q, 0.5)
        for g, w in zip(got, want):
            assert g.dtype == Q.dtype
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
        if norm == 0.0:
            assert all(np.array_equal(g, np.eye(n)) for g in got)

    def test_theta_is_the_degree_12_backward_error_bound(self):
        # log(e^-x T(x)) = sum_{k>12} c_k x^k for the degree-12 Taylor
        # polynomial T, in exact arithmetic to x^50: r = e^-x T(x) - 1
        # starts at x^13, so log(1 + r) needs r, r^2 and r^3
        K = 50
        r = [sum(Fraction((-1) ** (k - j), factorial(k - j) * factorial(j))
                 for j in range(min(k, 12) + 1)) for k in range(K + 1)]
        r[0] = Fraction(0)

        def times(a, b):
            return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(K + 1)]

        r2 = times(r, r)
        r3 = times(r2, r)
        c = [r[k] - r2[k] / 2 + r3[k] / 3 for k in range(K + 1)]
        assert not any(c[:13]) and c[13] != 0

        def bound(theta):
            return sum(abs(float(c[k])) * theta ** (k - 1) for k in range(13, K + 1))

        assert bound(_THETA_12) <= 2.0**-53 < bound(1.001 * _THETA_12)


class TestBasisAndArithmetic:
    """A diagonal H0 and real matrices take the fast path; the rotated,
    complex instance takes the general one and must agree with it."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**16),
        zs=st.floats(5e-3, 2e-2) | st.floats(-2e-2, -5e-3),
        zt=st.floats(5e-3, 2e-2),
    )
    def test_rotated_complex_instance_matches_diagonal_solve(self, n, seed, zs, zt):
        # Q2 vanishes for n = 2 (and for zs = 0, which is kept out), so
        # each difference is relative to ||Q1||^2 when that is larger
        base = solvable_instance(n, 1.0, seed)
        p = PerturbedOperator(base.h0, base.generators, (zs, 1j * zt))
        p_rot, U = rotated(p, seed)
        want = solve_all(p)
        floor = np.linalg.norm(want[0]) ** 2
        for w, got in zip(want, solve_all(p_rot)):
            dev = np.linalg.norm(got - U @ w @ U.conj().T)
            assert dev <= 1e-10 * max(np.linalg.norm(w), floor)

    def test_real_instance_stays_real(self):
        # S is real, and T is imaginary under an imaginary coupling, so H0,
        # S and every part of H1 are exactly real
        p = solvable_instance(6, 1e-2, 39)
        S, T = p.generators
        assert p.h0.dtype == S.dtype == float and T.dtype == complex
        parts = (p.h1, p.h1_hermitian, p.h1_antihermitian, p.total)
        assert all(M.dtype == float and not M.flags.writeable for M in parts)
        assert p.h1_antihermitian is p.h1_antihermitian
        assert not (p.h0.flags.writeable or S.flags.writeable or T.flags.writeable)
        q1 = solve_q1(p)
        H0, Hh, A = (np.asarray(M, complex) for M in (p.h0, p.h1_hermitian, p.h1_antihermitian))
        want = H0 + Hh + 0.25 * (A @ q1 - q1 @ A)
        h = equivalent_h(p, q1)
        assert h.dtype == complex
        assert np.linalg.norm(h - want) <= 1e-14 * np.linalg.norm(want)

    def test_caller_writes_do_not_reach_the_instance(self):
        # H0, the generators and everything cached from them are the
        # instance's own: a later write into the caller's arrays changes
        # neither p.h0 nor p.total nor the eigenbasis
        h0, s = np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        p = PerturbedOperator(h0, (s,), (0.1,))
        total = p.total.copy()
        h0[1, 1], s[0, 1] = 5.0, 7.0
        assert p.h0[1, 1] == 1.0 and p.generators[0][0, 1] == 1.0
        assert np.array_equal(p.total, total)
        assert np.array_equal(p.h0_eigh[0], [0.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            p.h0[0, 0] = 2.0

    def test_outputs_are_complex(self):
        p = solvable_instance(5, 1e-2, 38)
        q1, q2, h, eta = solve_all(p)
        hc = conjugated_h(p, QExpansion(q1, q2))
        assert all(M.dtype == complex for M in (q1, q2, h, eta, hc))


class TestBoundary:
    """Bad matrix input raises DomainError before any decomposition."""

    def _parts(self):
        p = solvable_instance(4, 1e-2, 50)
        return p.h0.copy(), [g.copy() for g in p.generators], p.couplings

    def test_nan_h0_rejected(self):
        h0, gens, z = self._parts()
        h0[1, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            PerturbedOperator(h0, tuple(gens), z)

    def test_inf_generator_rejected(self):
        h0, gens, z = self._parts()
        gens[1][0, 2] = np.inf
        gens[1][2, 0] = np.inf
        with pytest.raises(DomainError, match="non-finite"):
            PerturbedOperator(h0, tuple(gens), z)

    def test_non_square_h0_rejected(self):
        with pytest.raises(DomainError, match="square"):
            PerturbedOperator(np.zeros((3, 4)), (np.zeros((3, 4)),), (0.01,))

    def test_non_square_generator_rejected(self):
        h0, _, _ = self._parts()
        with pytest.raises(DomainError, match="square"):
            PerturbedOperator(h0, (np.zeros(4),), (0.01,))

    def test_generator_shape_mismatch_rejected(self):
        h0, _, _ = self._parts()
        with pytest.raises(DomainError, match="shape"):
            PerturbedOperator(h0, (np.eye(3),), (0.01,))

    @pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_coupling_rejected(self, z):
        h0, gens, _ = self._parts()
        with pytest.raises(DomainError, match="finite"):
            PerturbedOperator(h0, tuple(gens), (0.01, z))

    @pytest.mark.parametrize(
        "case",
        [
            "equivalent_h-shape",
            "equivalent_h-non-hermitian",
            "conjugated_h-shape",
            "solve_q2-shape",
            "map_observable-shape",
            "map_observable-non-hermitian",
            "map_observable-nan",
        ],
    )
    def test_q_that_does_not_fit_rejected(self, case):
        # a Q of another shape than the instance, not Hermitian or not
        # finite is outside the domain of every function that takes one
        p = solvable_instance(3, 1e-2, 51)
        small = np.zeros((2, 2))
        skew = np.zeros((3, 3))
        skew[0, 1] = 1.0
        nan = np.zeros((3, 3))
        nan[1, 1] = np.nan
        o = np.diag([1.0, 2.0, 3.0])
        calls = {
            "equivalent_h-shape": lambda: equivalent_h(p, small),
            "equivalent_h-non-hermitian": lambda: equivalent_h(p, skew),
            "conjugated_h-shape": lambda: conjugated_h(p, QExpansion(small, small)),
            "solve_q2-shape": lambda: solve_q2(p, small),
            "map_observable-shape": lambda: map_observable(o, small, small),
            "map_observable-non-hermitian": lambda: map_observable(o, skew, np.zeros((3, 3))),
            "map_observable-nan": lambda: map_observable(o, nan, np.zeros((3, 3))),
        }
        with pytest.raises(DomainError, match=r"shape|Hermitian|non-finite"):
            calls[case]()

    @pytest.mark.parametrize(
        "rows",
        [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],  # ragged row
            [[[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]]],  # 1 x 2
            [[1.0, [0.0, 0.0]], [[0.0, 0.0], 1.0]],  # plain numbers and pairs mixed
            [[[1.0, "x"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[1.0, "1.5"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # a numeric string
            [["12", "34"], ["56", "78"]],  # pairs as two-character strings
            [[[10**400, 0.0]]],  # an integer no float can hold
            [],
            [[10**400]],  # the same integer as a plain number
            [["1.5", 0.0], [0.0, 1.0]],  # a numeric string as a plain number
        ],
    )
    def test_matrix_from_json_rejects_bad_rows(self, rows):
        with pytest.raises(DomainError, match=r"\[re, im\] pairs"):
            matrix_from_json(rows)

    def test_matrix_from_json_reads_plain_rows(self):
        M = matrix_from_json([[1.0, 0.0], [0.0, 1.0]])
        assert M.dtype == float and np.array_equal(M, np.eye(2))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 6),
        imag=st.sampled_from(["none", "+0.0", "one -0.0", "drawn"]),
        data=st.data(),
    )
    def test_json_round_trip_is_bit_exact(self, n, imag, data):
        # real matrices, complex ones whose imaginary parts are all +0.0,
        # and complex ones holding a -0.0 or drawn imaginary parts
        values = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]) | st.floats(
            allow_nan=False, allow_infinity=False
        )

        def draw():
            return np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n)))

        M = draw().reshape(n, n)
        if imag != "none":
            im = draw() if imag == "drawn" else np.zeros(n * n)
            if imag == "one -0.0":
                im[data.draw(st.integers(0, n * n - 1))] = -0.0
            M = M.astype(complex)  # keeps each -0.0, where M + 0j would not
            M.imag = im.reshape(n, n)
        rows = json.loads(json.dumps(matrix_to_json(M)))
        plain = imag == "none" or not (np.signbit(M.imag).any() or M.imag.any())
        assert all(isinstance(v, float) == plain for row in rows for v in row)
        back = matrix_from_json(rows)
        assert back.dtype == (float if plain else complex)
        assert np.array_equal(np.asarray(back, M.dtype).view(np.uint64), M.view(np.uint64))


class TestCost:
    """The work the perturbation path does is the work its result needs."""

    @staticmethod
    def _counted_eigh(monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def _count_eigh(self, monkeypatch, p):
        calls = self._counted_eigh(monkeypatch)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        eta_from_q(q1, q2)
        conjugated_h(p, QExpansion(q1, q2))
        return len(calls)

    def test_rotated_h0_is_the_only_decomposition(self, monkeypatch):
        # one eigh of H0, shared by both orders; eta and rho come from a
        # Taylor polynomial of -(Q1 + Q2), with no decomposition of Q
        p, _ = rotated(solvable_instance(8, 1e-2, 60), 60)
        assert self._count_eigh(monkeypatch, p) == 1

    def test_diagonal_h0_needs_no_decomposition(self, monkeypatch):
        # a diagonal H0 is its own eigenbasis, and Q is never decomposed
        p = solvable_instance(8, 1e-2, 60)
        assert self._count_eigh(monkeypatch, p) == 0
        E, V = p.h0_eigh
        assert np.array_equal(E, np.diag(p.h0).real) and np.array_equal(V, np.eye(8))

    @pytest.mark.parametrize("rotate, want", [(False, 0), (True, 1)], ids=["diagonal", "rotated"])
    def test_run_instance_decomposes_no_q(self, monkeypatch, rotate, want):
        # no eigh of Q for eta or rho; one of a rotated H0
        p = solvable_instance(8, 1e-2, 60)
        if rotate:
            p, _ = rotated(p, 60)
        payload = {
            "h0": matrix_to_json(p.h0),
            "generators": [matrix_to_json(g) for g in p.generators],
            "couplings": [[z.real, z.imag] for z in p.couplings],
        }
        calls = self._counted_eigh(monkeypatch)
        run_instance(payload)
        assert len(calls) == want

    def test_scalings_check_decomposes_no_q(self, monkeypatch):
        # 8 diagonal-H0 instances, each read for eta and rho: no eigh
        calls = self._counted_eigh(monkeypatch)
        ok, detail = check_perturbation_scalings()
        assert ok, detail
        assert len(calls) == 0

    def test_expansion_eta_is_eta_from_q(self):
        p = solvable_instance(8, 1e-2, 60)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        assert np.array_equal(QExpansion(q1, q2).eta(), eta_from_q(q1, q2))

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_q2_and_observable_match_three_product_oracle(self, rotate):
        # the general commutators solve_q2 and map_observable were first
        # written with, kept as the oracle for their one-product forms:
        # R = [Q1, H1] - (1/2)[[H0, Q1], Q1], and [A, B] = AB - BA
        def comm(A, B):
            return A @ B - B @ A

        base = solvable_instance(7, 1.0, 62)
        p = PerturbedOperator(base.h0, base.generators, (1.5e-2, 1e-2j))
        if rotate:
            p, _ = rotated(p, 62)
        q1 = solve_q1(p)
        R = comm(q1, p.h1) - 0.5 * comm(comm(p.h0, q1), q1)
        E, V = np.linalg.eigh(p.h0)
        gaps = E[:, None] - E[None, :]
        np.fill_diagonal(gaps, np.inf)
        oracle = V @ ((V.conj().T @ R @ V) / gaps) @ V.conj().T
        q2 = solve_q2(p, q1)
        assert np.linalg.norm(q2 - oracle) <= 1e-12 * np.linalg.norm(oracle)

        rng = np.random.default_rng(63)
        C = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        o = (C + C.conj().T) / 2
        c1 = comm(o, q1)
        want = o - 0.5 * (c1 + comm(o, q2) - 0.25 * comm(c1, q1))
        got = map_observable(o, q1, q2)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_json_matches_elementwise_oracle(self):
        # the element-wise [re, im] comprehension the wire format was
        # first written with, kept as the oracle for both directions
        def to_json_oracle(M):
            return [[[v.real, v.imag] for v in row] for row in np.asarray(M, dtype=complex)]

        def from_json_oracle(rows):
            return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)

        rng = np.random.default_rng(61)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M[0, 0] = complex(-0.0, -0.0)
        M[1, 2] = complex(5e-324, -np.nextafter(0.0, 1.0) * 7)
        M[3, 4] = complex(1e300, -1e300)
        M = M.T  # a non-contiguous input

        def bits(rows):
            return np.array(rows, dtype=float).view(np.uint64)

        rows = matrix_to_json(M)
        assert np.array_equal(bits(rows), bits(to_json_oracle(M)))
        back = matrix_from_json(rows)
        oracle = from_json_oracle(to_json_oracle(M))
        assert back.shape == oracle.shape == M.shape
        assert np.array_equal(back.view(np.uint64), oracle.view(np.uint64))
        assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(M).view(np.uint64))


@pytest.mark.slow
class TestContinuumConsistency:
    def test_q1_matches_bounded_metric_kernel(self):
        # the discretized double-delta Hamiltonian fed through the matrix
        # engine reproduces (minus) the first-order kernel on interior
        # points: Q1 = -eta1
        lam = 0.1
        x, h = uniform_grid(400)
        c = Couplings(1j * lam, -1j * lam, 1.0)
        from ddscatter.grid import gaussian_delta

        K = discretized_hamiltonian(Couplings(0.0, 0.0, 1.0), x).real
        gen = np.diag(gaussian_delta(x - 1.0, 0.05) - gaussian_delta(x + 1.0, 0.05))
        p = PerturbedOperator(K, (gen,), (1j * lam,))
        q1 = solve_q1(p)
        # interpolate to cell midpoints: the 2x2 average removes the
        # lattice checkerboard the finite-difference dispersion puts into
        # the sign-jump content of the kernel
        qa = 0.25 * (q1[:-1, :-1] + q1[1:, :-1] + q1[:-1, 1:] + q1[1:, 1:])
        xm = 0.5 * (x[:-1] + x[1:])
        target = -regular_part_grid(eta1_bounded(c), xm, xm) * h
        # interior points away from the kernel discontinuities and edges
        sel = (
            (np.abs(xm[:, None]) < 5.0)
            & (np.abs(xm[None, :]) < 5.0)
            & (np.abs(xm[:, None] - xm[None, :]) > 0.4)
            & (np.abs(xm[:, None] + xm[None, :] - 2.0) > 0.4)
            & (np.abs(xm[:, None] + xm[None, :] + 2.0) > 0.4)
        )
        scale = np.max(np.abs(target))
        dev = np.max(np.abs(qa - target)[sel]) / scale
        assert dev <= 5e-2
