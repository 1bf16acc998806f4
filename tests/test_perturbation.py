"""Finite-dimensional perturbative metric engine.

The cubic scaling of the conjugated-H and eta residuals and the
first-order and two-forms identities are registry checks
(``perturbation.*`` in ``ddscatter.verify.CHECKS``)."""

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
from ddscatter.perturbation import _expm_pair_hermitian, matrix_from_json, matrix_to_json
from ddscatter.verify import solvable_instance


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
        # a real eigenvector matrix V is its own V.conj(): the adjoint
        # taken for exp(A) must not see the in-place scaling for exp(-A)
        rng = np.random.default_rng(36)
        B = rng.normal(size=(6, 6))
        exp_a, exp_minus_a = _expm_pair_hermitian(0.1 * (B + B.T))
        assert np.linalg.norm(exp_a @ exp_minus_a - np.eye(6)) <= 1e-12

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
        "rows",
        [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],  # ragged row
            [[[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]]],  # 1 x 2
            [[1.0, 0.0], [0.0, 1.0]],  # no [re, im] pairs
            [[[1.0, "x"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[1.0, "1.5"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # a numeric string
            [["12", "34"], ["56", "78"]],  # pairs as two-character strings
            [[[10**400, 0.0]]],  # an integer no float can hold
            [],
        ],
    )
    def test_matrix_from_json_rejects_bad_rows(self, rows):
        with pytest.raises(DomainError, match=r"\[re, im\] pairs"):
            matrix_from_json(rows)


class TestCost:
    """The work the perturbation path does is the work its result needs."""

    @staticmethod
    def _count_eigh(monkeypatch, p):
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        q1 = solve_q1(p)
        q2 = solve_q2(p, q1)
        eta_from_q(q1, q2)
        conjugated_h(p, QExpansion(q1, q2))
        return len(calls)

    def test_three_eigendecompositions(self, monkeypatch):
        # one for H0 (shared by both orders), one per exponential pair
        p, _ = rotated(solvable_instance(8, 1e-2, 60), 60)
        assert self._count_eigh(monkeypatch, p) == 3

    def test_diagonal_h0_needs_no_decomposition(self, monkeypatch):
        # a diagonal H0 is its own eigenbasis: one eigh per exponential pair
        p = solvable_instance(8, 1e-2, 60)
        assert self._count_eigh(monkeypatch, p) == 2
        E, V = p.h0_eigh
        assert np.array_equal(E, np.diag(p.h0).real) and np.array_equal(V, np.eye(8))

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
