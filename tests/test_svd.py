"""SVD kernel: invariants, the fixed convention, determinism, oracles."""

import itertools
import math

import numpy as np
import pytest

import kronquot.singular as svd_mod
from kronquot import (
    ConvergenceError,
    Matrix,
    UnsupportedInputError,
    relative_residual,
    svd,
)
from oracles import (
    DegenerateInputError,
    jacobi_eigenvalues,
    leading_pair,
    operator_norm,
    reconstruct,
)


def random_matrix(rng, rows, cols):
    return Matrix.from_array(rng.uniform(-1, 1, (rows, cols))
                             + 1j * rng.uniform(-1, 1, (rows, cols)))


def check_invariants(a, result):
    m, n = a.rows, a.cols
    assert result.u.shape == (m, m)
    assert result.v.shape == (n, n)
    assert len(result.sigma) == min(m, n)
    assert all(x >= 0.0 for x in result.sigma)
    assert all(result.sigma[k] >= result.sigma[k + 1] for k in range(len(result.sigma) - 1))
    norm = max(1.0, a.frobenius_norm())
    assert (reconstruct(result) - a).frobenius_norm() <= 1e-9 * norm
    eye_m, eye_n = Matrix.identity(m), Matrix.identity(n)
    assert (result.u.conjugate().transpose() @ result.u - eye_m).frobenius_norm() <= 1e-10
    assert (result.v.conjugate().transpose() @ result.v - eye_n).frobenius_norm() <= 1e-10


def check_phase_convention(result):
    varr = result.v.to_array()
    for k in range(result.v.cols):
        col = varr[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)
        assert pivot.real > 0.0


class TestWorkedCases:
    def test_diagonal_sorted_positive(self):
        result = svd(Matrix.diagonal([3, 1]))
        assert result.u == Matrix.identity(2)
        assert result.sigma == (3.0, 1.0)
        assert result.v == Matrix.identity(2)

    def test_nilpotent(self):
        result = svd(Matrix.from_rows([[0, 2], [0, 0]]))
        assert result.sigma == (2.0, 0.0)
        assert result.u.column(1) == Matrix.unit(2, 1, 1, 1)
        assert result.v.column(1) == Matrix.unit(2, 1, 2, 1)

    def test_zero_matrix_convention(self):
        result = svd(Matrix.zero(2, 3))
        assert result.sigma == (0.0, 0.0)
        assert result.u == Matrix.identity(2)
        assert result.v == Matrix.identity(3)

    def test_diagonal_needing_reorder(self):
        result = svd(Matrix.diagonal([1, 3]))
        assert result.sigma == (3.0, 1.0)
        assert result.u.column(1) == Matrix.unit(2, 1, 2, 1)


class TestInvariants:
    def test_random_batch(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = random_matrix(rng, int(rng.integers(1, 17)), int(rng.integers(1, 17)))
            result = svd(a)
            check_invariants(a, result)
            check_phase_convention(result)

    def test_rank_deficient_and_thin(self):
        rng = np.random.default_rng(42)
        tall = random_matrix(rng, 7, 3)
        wide = random_matrix(rng, 3, 7)
        outer = Matrix.from_array(np.outer(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)))
        for a in (tall, wide, outer):
            result = svd(a)
            check_invariants(a, result)
            check_phase_convention(result)
        assert sum(x > 1e-12 for x in svd(outer).sigma) == 1

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1e8, 1e120])
    def test_uniformly_extreme_scales(self, scale):
        # squared column norms (or their products) must not mute rotations;
        # one shape below the executor crossover and one above it
        rng = np.random.default_rng(50)
        for rows, cols in ((6, 4), (40, 24)):
            a = Matrix.from_array(scale * (rng.normal(size=(rows, cols))
                                           + 1j * rng.normal(size=(rows, cols))))
            check_invariants(a, svd(a))

    def test_fully_degenerate_spectrum(self):
        # unitary input: every singular value equals 1
        rng = np.random.default_rng(51)
        for n in (5, 16):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            a = Matrix.from_array(q)
            result = svd(a)
            check_invariants(a, result)
            check_phase_convention(result)
            assert all(abs(x - 1.0) < 1e-12 for x in result.sigma)

    def test_graded_spectrum(self):
        rng = np.random.default_rng(52)
        for n in (5, 16):
            # twelve decades, evenly graded: 10^-3 apart at n = 5
            wants = [10.0 ** (-12 * i / (n - 1)) for i in range(n)]
            diag = np.diag(wants).astype(complex)
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            a = Matrix.from_array(q1 @ diag @ q2)
            result = svd(a)
            check_invariants(a, result)
            # relative accuracy on each scale, plus the absolute floor that
            # forming the product q1 @ diag @ q2 already costs
            for got, want in zip(result.sigma, wants):
                assert abs(got - want) <= 1e-7 * want + 1e-14

    def test_norm_overflow_rejected(self):
        # the squared norm overflows binary64, sigma_1 = 4e200 does not
        result = svd(Matrix.from_array(np.full((4, 4), 1e200)))
        assert abs(result.sigma[0] - 4e200) <= 1e-12 * 4e200
        # sigma_1 = 4e308 itself overflows
        with pytest.raises(UnsupportedInputError):
            svd(Matrix.from_array(np.full((4, 4), 1e308)))

    def test_sigma_against_eigen_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            a = random_matrix(rng, m, n)
            sigma = svd(a).sigma
            gram = a.conjugate().transpose() @ a
            eigs = jacobi_eigenvalues(gram)
            scale = max(1.0, sigma[0])
            for got, lam in zip(sigma, eigs):
                assert abs(got - np.sqrt(max(lam, 0.0))) <= 1e-8 * scale

    def test_leading_pair_product(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            u1, sigma1, v1 = leading_pair(a)
            got = (u1.conjugate().transpose() @ a @ v1).entry(1, 1)
            assert abs(got - sigma1) <= 1e-9 * max(1.0, sigma1)


class TestDeterminism:
    def test_bit_identical_repeat_calls(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            a = random_matrix(rng, int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            r1 = svd(a)
            r2 = svd(Matrix.from_array(a.to_array()))
            assert r1.sigma == r2.sigma
            assert r1.u.entries == r2.u.entries
            assert r1.v.entries == r2.v.entries


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(Matrix.identity(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(Matrix.diagonal([3, 1])) == 3.0

    def test_nilpotent(self):
        assert operator_norm(Matrix.from_rows([[0, 2], [0, 0]])) == 2.0

    def test_zero_iff_zero(self):
        assert operator_norm(Matrix.zero(3, 2)) == 0.0
        rng = np.random.default_rng(46)
        assert operator_norm(random_matrix(rng, 3, 2)) > 0.0

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_is_exact_at_extreme_exponents(self, e):
        a = np.array([[1, .5], [.25, 2]])
        assert operator_norm(Matrix.from_array(np.ldexp(a, e))) \
            == math.ldexp(operator_norm(Matrix.from_array(a)), e)


class TestLeadingPair:
    def test_diagonal(self):
        u1, sigma1, v1 = leading_pair(Matrix.diagonal([2, 1]))
        assert u1 == Matrix.unit(2, 1, 1, 1)
        assert sigma1 == 2.0
        assert v1 == Matrix.unit(2, 1, 1, 1)

    def test_nilpotent(self):
        u1, sigma1, v1 = leading_pair(Matrix.from_rows([[0, 2], [0, 0]]))
        assert (u1, sigma1, v1) == (Matrix.unit(2, 1, 1, 1), 2.0, Matrix.unit(2, 1, 2, 1))

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(47)
        a = random_matrix(rng, 4, 3)
        u1, sigma1, v1 = leading_pair(a)
        u2, sigma2, v2 = leading_pair(2 * a)
        assert sigma2 == 2 * sigma1
        assert u2.entries == u1.entries
        assert v2.entries == v1.entries

    def test_general_positive_scaling(self):
        rng = np.random.default_rng(48)
        a = random_matrix(rng, 4, 3)
        u1, sigma1, v1 = leading_pair(a)
        u2, sigma2, v2 = leading_pair(3.0 * a)
        assert sigma2 == pytest.approx(3.0 * sigma1, rel=1e-12)
        assert relative_residual(u2, u1) < 1e-10
        assert relative_residual(v2, v1) < 1e-10

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            leading_pair(Matrix.zero(2, 2))


def test_convergence_error_carries_residual(monkeypatch):
    # choke the sweep budget so a generic matrix cannot converge
    monkeypatch.setattr(svd_mod, "_SWEEPS_PER_COLUMN", 0)
    rng = np.random.default_rng(49)
    for n in (4, 16):
        with pytest.raises(ConvergenceError) as info:
            svd(random_matrix(rng, n, n))
        assert info.value.residual > 0.0


def test_round_robin_meets_every_pair_once_per_sweep():
    for n in range(2, 41):
        schedule = svd_mod._round_robin(n)
        assert len(schedule.steps) == n - 1 + n % 2
        met = [pair for step in schedule.steps for pair in step]
        assert sorted(met) == list(itertools.combinations(range(n), 2))
        # the moves carry each step's layout, pairs side by side, into the next
        layout = np.arange(n)
        for step, move in zip(schedule.steps, schedule.moves):
            assert len({c for pair in step for c in pair}) == 2 * len(step) == n - n % 2
            assert [tuple(p) for p in layout[:n - n % 2].reshape(-1, 2).tolist()] == list(step)
            layout = layout[move]
        assert layout.tolist() == list(range(n))


@pytest.mark.parametrize("rows, cols", [(8, 8), (9, 9), (10, 10), (27, 9), (9, 27)])
def test_executors_agree_around_the_crossover(monkeypatch, rows, cols):
    rng = np.random.default_rng(53)
    a = random_matrix(rng, rows, cols)
    sigmas = []
    for threshold in (1, 10**9):  # the vectorized executor, then the scalar one
        monkeypatch.setattr(svd_mod, "_VECTORIZE_FROM_COLS", threshold)
        sigmas.append(svd(a).sigma)
    for vectorized, scalar in zip(*sigmas):
        assert abs(vectorized - scalar) <= 1e-13 * scalar


def test_sweep_statistics():
    rng = np.random.default_rng(54)
    for rows, cols in ((4, 3), (16, 16)):
        result = svd(random_matrix(rng, rows, cols))
        pairs = cols * (cols - 1) // 2
        assert result.sweeps >= 2
        assert 0 < result.rotations <= (result.sweeps - 1) * pairs
        assert 0.0 <= result.offdiag_ratio <= svd_mod._PAIR_TOL
    already_orthogonal = svd(Matrix.diagonal([1, 3, 2]))
    assert (already_orthogonal.sweeps, already_orthogonal.rotations,
            already_orthogonal.offdiag_ratio) == (1, 0, 0.0)
