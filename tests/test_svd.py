"""SVD kernel: invariants, the fixed convention, determinism, oracles."""

import itertools
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kronquot.singular as singular
from kronquot import (
    ConvergenceError,
    Matrix,
    UnsupportedInputError,
    realize,
    relative_residual,
    svd,
)
from oracles import (
    DegenerateInputError,
    graded_matrix,
    jacobi_eigenvalues,
    leading_pair,
    operator_norm,
    orthogonal_columns_by_gram,
    phase_of,
    reconstruct,
)


def random_matrix(rng, rows, cols):
    return Matrix.from_array(rng.uniform(-1, 1, (rows, cols))
                             + 1j * rng.uniform(-1, 1, (rows, cols)))


def check_invariants(a, result):
    """The compact form: m x r and n x r factors with orthonormal columns, r = max(rank, 1)."""
    m, n = a.rows, a.cols
    r = max(1, sum(x > max(m, n) * np.finfo(float).eps * result.sigma[0] for x in result.sigma))
    assert result.u.shape == (m, r)
    assert result.v.shape == (n, r)
    assert len(result.sigma) == min(m, n)
    assert all(x >= 0.0 for x in result.sigma)
    assert all(result.sigma[k] >= result.sigma[k + 1] for k in range(len(result.sigma) - 1))
    norm = max(1.0, a.frobenius_norm())
    assert (reconstruct(result) - a).frobenius_norm() <= 1e-9 * norm
    eye_r = Matrix.identity(r)
    assert (result.u.conjugate().transpose() @ result.u - eye_r).frobenius_norm() <= 1e-10
    assert (result.v.conjugate().transpose() @ result.v - eye_r).frobenius_norm() <= 1e-10


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
        assert result.u == Matrix.unit(2, 1, 1, 1)
        assert result.v == Matrix.unit(3, 1, 1, 1)

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
        # squared column norms must neither overflow nor underflow
        rng = np.random.default_rng(50)
        for rows, cols in ((6, 4), (40, 24)):
            a = Matrix.from_array(scale * (rng.normal(size=(rows, cols))
                                           + 1j * rng.normal(size=(rows, cols))))
            check_invariants(a, svd(a))

    def test_compact_convention_on_every_small_shape(self):
        # random, rank-1, rank-2 and zero inputs, each also scaled by 2^700 and 2^-700
        rng = np.random.default_rng(71)
        for m in range(1, 7):
            for n in range(1, 7):
                cases = [(random_matrix(rng, m, n), min(m, n)),
                         (random_matrix(rng, m, 1) @ random_matrix(rng, 1, n), 1),
                         (random_matrix(rng, m, 2) @ random_matrix(rng, 2, n), min(m, n, 2)),
                         (Matrix.zero(m, n), 1)]
                for a, r in cases:
                    base = svd(a)
                    for e in (0, 700, -700):
                        scaled = Matrix.from_array(np.ldexp(a.to_array().view(float), e)
                                                   .view(complex))
                        result = svd(scaled)
                        assert result.u.shape == (m, r) and result.v.shape == (n, r)
                        check_invariants(scaled, result)
                        check_phase_convention(result)
                        assert result.u.entries == base.u.entries
                        assert result.v.entries == base.v.entries
                        if a.is_zero():  # exactly e1 and e1
                            for got, rows in ((result.u, m), (result.v, n)):
                                want = np.eye(rows, 1, dtype=complex)
                                assert got.to_array().tobytes() == want.tobytes()

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


def same_bits(r1, r2):
    return (r1.sigma == r2.sigma and r1.u.entries == r2.u.entries
            and r1.v.entries == r2.v.entries)


# SHA-256 of U, sigma and V over small and large shapes, a rank-deficient and a
# graded input, of one operator law check, of products and quotients, and of the
# norms of 256 x 256 matrices, whose sums of squares exceed OpenBLAS's threading cut,
# for comparing processes that differ only in their environment
_DIGEST_SCRIPT = """
import contextlib
import hashlib
import io
import os
import struct
import tempfile
import numpy as np
from kronquot import (FactorShape, Matrix, check_axiom, is_divisor, kron, left_quotient, pfp,
                      relative_residual, remainder, right_quotient, svd, write_matrix)
from kronquot.cli import main
digest = hashlib.sha256()
rng = np.random.default_rng(55)
def complex_uniform(rows, cols):
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
inputs = [complex_uniform(rows, cols) for rows, cols in (
    (2, 2), (4, 3), (3, 4), (4, 4), (8, 8), (9, 9), (16, 16), (32, 32), (32, 12), (12, 32))]
inputs.append(complex_uniform(20, 3) @ complex_uniform(3, 20))  # rank 3
inputs.append(complex_uniform(16, 16) * np.logspace(0, -8, 16))  # graded columns
for a in inputs:
    result = svd(Matrix.from_array(a))
    for part in (result.u.to_array(), np.array(result.sigma), result.v.to_array()):
        digest.update(part.tobytes())
digest.update(check_axiom("Q3", "operator", trials=20, seed=3).to_json().encode())
a, b = (Matrix.from_array(rng.uniform(-1, 1, (16, 16)) + 1j * rng.uniform(-1, 1, (16, 16)))
        for _ in range(2))
m = kron(a, b) + Matrix.from_array(rng.uniform(-1, 1, (256, 256)))
shape = FactorShape(16, 16, 16, 16)
digest.update(remainder("frobenius", a, m, shape).to_array().tobytes())
digest.update(right_quotient("operator", m, b, shape).to_array().tobytes())
other = Matrix.from_array(rng.uniform(-1, 1, (256, 256)) + 1j * rng.uniform(-1, 1, (256, 256)))
digest.update(struct.pack("<3d", m.frobenius_norm(), other.frobenius_norm(),
                          relative_residual(m, other)))
digest.update(str(is_divisor("frobenius", a, m, shape)).encode())
with tempfile.TemporaryDirectory() as tmp:
    paths = [os.path.join(tmp, name) for name in ("a.mat", "m.mat", "r.mat")]
    write_matrix(paths[0], a)
    write_matrix(paths[1], m)
    with contextlib.redirect_stdout(io.StringIO()) as trailer:
        main(["rem", "--scheme", "frobenius", "--shape", "16,16,16,16", *paths[:2], "-o", paths[2]])
    digest.update(trailer.getvalue().encode())  # divisor=... residual=||R||_F
for rows, cols in ((32, 32), (32, 8)):
    a, b = (Matrix.from_array(rng.uniform(-1, 1, dims) + 1j * rng.uniform(-1, 1, dims))
            for dims in ((rows, cols), (cols, rows)))
    product = kron(a, b)
    m = Matrix.from_array(product.to_array() + rng.uniform(-1, 1, (rows * cols, rows * cols)))
    digest.update(product.to_array().tobytes())
    digest.update(pfp(a, m).to_array().tobytes())
    digest.update(left_quotient("frobenius", a, m, FactorShape(rows, cols, cols, rows))
                  .to_array().tobytes())
print(digest.hexdigest())
"""


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

    @pytest.mark.parametrize("rows, cols", [(9, 9), (16, 16), (32, 32), (32, 12), (12, 32)])
    def test_bit_identical_repeat_calls_from_a_lapack_start(self, rows, cols):
        a = random_matrix(np.random.default_rng(56), rows, cols)
        assert same_bits(svd(a), svd(Matrix.from_array(a.to_array())))

    def test_blas_thread_count_leaves_the_bits(self):
        digests = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_threads_get_the_serial_bits(self):
        a = random_matrix(np.random.default_rng(57), 24, 24)
        serial = svd(a)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: svd(a), range(16)))
        assert all(same_bits(result, serial) for result in results)


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


def permutation_matrix(order):
    """The matrix whose column k is the standard basis vector e_order[k]."""
    return Matrix.from_array(np.eye(len(order))[:, order])


class TestFromNineColumns:
    """The LAPACK path: every SVD returns LAPACK's decomposition under the
    package's convention, unless the working matrix has one column or
    orthogonal columns."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 16, 32])
    def test_orthogonal_columns_keep_the_identity_start(self, monkeypatch, k):
        def unreachable(*args, **kwargs):
            raise AssertionError("orthogonal columns need no LAPACK start")

        monkeypatch.setattr(np.linalg, "svd", unreachable)
        rng = np.random.default_rng(58)
        eye = Matrix.identity(k)

        result = svd(eye)
        assert (result.u, result.sigma, result.v) == (eye, (1.0,) * k, eye)

        # integer magnitudes, some negative: sorted descending by a permutation V
        values = rng.permutation(np.arange(1, k + 1)) * rng.choice([-1.0, 1.0], k)
        result = svd(Matrix.diagonal(values))
        order = np.argsort(-np.abs(values), kind="stable")
        assert result.sigma == tuple(float(x) for x in np.abs(values)[order])
        assert result.v == permutation_matrix(order)
        assert result.u == Matrix.from_array(np.eye(k)[:, order] * np.sign(values)[order])

        # tied sigma: the columns keep their order, so V = I and U = A
        perm = permutation_matrix(rng.permutation(k))
        result = svd(perm)
        assert (result.u, result.sigma, result.v) == (perm, (1.0,) * k, eye)

        q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        result = svd(Matrix.from_array(q))
        order = np.argmax(np.abs(result.v.to_array()), axis=0)
        assert result.v == permutation_matrix(order)
        assert result.u == Matrix.from_array(q[:, order] / np.array(result.sigma))
        assert all(abs(x - 1.0) <= 1e-14 for x in result.sigma)

    def test_sigma_matches_lapack(self):
        rng = np.random.default_rng(59)
        for rows, cols in ((1, 1), (2, 2), (4, 3), (3, 4), (8, 8), (9, 9), (16, 16),
                           (25, 25), (40, 40), (40, 1), (1, 40), (40, 9), (9, 40),
                           (33, 20), (20, 33)):
            a = random_matrix(rng, rows, cols)
            sigma = svd(a).sigma
            want = np.linalg.svd(a.to_array(), compute_uv=False)
            assert max(abs(got - x) for got, x in zip(sigma, want)) <= 1e-14 * want[0]

    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("e", [-1000, 1000])
    def test_power_of_two_scaling_is_exact(self, n, e):
        a = random_matrix(np.random.default_rng(60), n, n)
        base = svd(a)
        scaled = svd(Matrix.from_array(np.ldexp(a.to_array().view(float), e).view(complex)))
        assert scaled.sigma == tuple(math.ldexp(x, e) for x in base.sigma)
        assert scaled.u.entries == base.u.entries
        assert scaled.v.entries == base.v.entries

    def test_one_lapack_call_unless_one_or_orthogonal_columns(self, monkeypatch):
        calls = []
        lapack = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return lapack(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(64)
        for rows, cols in ((4, 3), (3, 4), (16, 16), (2, 2)):
            svd(random_matrix(rng, rows, cols))
        assert calls == [(4, 3), (4, 3), (16, 16), (2, 2)]  # a wide input runs transposed
        calls.clear()
        for a in (random_matrix(rng, 5, 1), random_matrix(rng, 1, 5), Matrix.zero(3, 4),
                  Matrix.diagonal([2, -5, 1j])):
            svd(a)
        assert calls == []

    def test_lapack_failure_raises_convergence_error_naming_the_shape(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        rng = np.random.default_rng(61)
        for rows, cols in ((4, 3), (3, 4), (16, 16)):
            with pytest.raises(ConvergenceError, match=f"of the {rows}x{cols} input"):
                svd(graded_matrix(rng, rows, cols))

    @pytest.mark.parametrize("n, rank", [(12, 1), (20, 3), (16, 8), (32, 16), (4, 1)])
    def test_rank_deficient(self, n, rank):
        rng = np.random.default_rng(65)
        a = random_matrix(rng, n, rank) @ random_matrix(rng, rank, n)
        result = svd(a)
        check_invariants(a, result)
        check_phase_convention(result)
        want = np.linalg.svd(a.to_array(), compute_uv=False)
        assert max(abs(got - x) for got, x in zip(result.sigma, want)) <= 1e-14 * want[0]
        assert sum(x > 1e-12 * want[0] for x in result.sigma) == rank


def first_pair_inputs():
    """Every shape 1x1 to 8x8, random complex, random real, rank-1, permutation and
    identity (both m x n, ones on a diagonal), each also scaled by 2^900 and 2^-900;
    exactly orthogonal columns; and columns whose squared norms are subnormal or
    underflow to 0 beside columns near 1, where the Gram test reads some pairs as
    orthogonal."""
    rng = np.random.default_rng(67)
    base = []
    for rows, cols in itertools.product(range(1, 9), repeat=2):
        eye = np.eye(rows, cols, dtype=complex)
        base += [random_matrix(rng, rows, cols).to_array(),
                 rng.uniform(-1, 1, (rows, cols)) + 0j,
                 random_matrix(rng, rows, 1).to_array() @ random_matrix(rng, 1, cols).to_array(),
                 eye[:, rng.permutation(cols)], eye]
    ones = np.ones((2, 1), dtype=complex)
    base += [np.array([[1, 1], [1, -1]], dtype=complex), np.array([[1, 1j], [1j, 1]]),
             np.array([[3, 0, 4j], [0, 5, 0], [4, 0, -3j]], dtype=complex)]
    for tiny in (1e-155, 1e-162, 2.0 ** -540, 1e-170, 0.0):
        for rows in (2, 8, 16):
            near_one = random_matrix(rng, rows, 2).to_array()
            base += [np.column_stack([np.full(rows, tiny, dtype=complex), near_one]),
                     np.column_stack([near_one[:, 0], np.full(rows, tiny, dtype=complex),
                                      near_one[:, 1]]),
                     np.column_stack([np.full(rows, tiny, dtype=complex), np.ones(rows)]).T]
        base.append(np.hstack([tiny * ones, np.array([[1], [-1]], dtype=complex)]))
    return [Matrix.from_array(np.ldexp(np.ascontiguousarray(a).view(float), e).view(complex))
            for a in base for e in (0, 900, -900)]


class TestFirstPairReject:
    """``_orthogonal_columns`` rejects on the first column pair before it builds the
    Gram matrix; that changes none of its decisions, so no SVD's bits either."""

    def test_decisions_are_the_gram_tests(self):
        rejected = 0
        for a in first_pair_inputs():
            arr = a.to_array()
            work = singular._ldexp(arr, -singular._exponent(arr))
            work = work.conj().T if a.rows < a.cols else work
            if work.shape[1] < 2:
                continue
            decision = singular._orthogonal_columns(work)
            assert decision == orthogonal_columns_by_gram(work), arr
            rejected += not decision
        assert rejected > 300  # most random inputs, where the first pair decides

    def test_svd_bits_are_the_gram_tests(self, monkeypatch):
        inputs = first_pair_inputs()
        results = [(svd(a), realize("operator", a).q) for a in inputs]
        monkeypatch.setattr(singular, "_orthogonal_columns", orthogonal_columns_by_gram)
        for a, (result, q) in zip(inputs, results):
            assert same_bits(result, svd(a)), a
            assert q.to_array().tobytes() == realize("operator", a).q.to_array().tobytes(), a

    def test_underflowed_norms_are_left_to_the_gram_test(self):
        # column 0's squares underflow to 0, yet its inner product with column 1 squares
        # to a positive subnormal: the Gram test reads the pair as orthogonal
        work = np.column_stack([np.full(8, 5e-163, dtype=complex), np.full(8, 0.5 + 0j)])
        assert np.vdot(work[:, 0], work[:, 0]).real == 0.0
        assert abs(np.vdot(work[:, 0], work[:, 1])) ** 2 > 0.0
        assert orthogonal_columns_by_gram(work)
        assert singular._orthogonal_columns(work)


def deferred_inputs():
    """Tall, wide, square, one-column, one-row, diagonal, permutation and
    rank-deficient inputs, each also scaled by 2^700 and 2^-700."""
    rng = np.random.default_rng(66)
    base = [random_matrix(rng, 7, 3), random_matrix(rng, 3, 7), random_matrix(rng, 5, 5),
            random_matrix(rng, 6, 1), random_matrix(rng, 1, 6), Matrix.diagonal([1, -3j, 2]),
            permutation_matrix([2, 0, 3, 1]),
            random_matrix(rng, 6, 2) @ random_matrix(rng, 2, 5)]
    return [Matrix.from_array(np.ldexp(a.to_array().view(float), e).view(complex))
            for a in base for e in (0, 700, -700)]


class TestDeferredCompletion:
    """svd computes sigma and the rank columns; reads of u and v return those columns."""

    def test_threads_reading_one_result_get_the_serial_bits(self):
        a = random_matrix(np.random.default_rng(69), 12, 5)
        serial = svd(a)
        serial_bits = (serial.u.to_array().tobytes(), serial.v.to_array().tobytes())
        shared = svd(a)
        start = threading.Barrier(8)

        def read(_):
            start.wait(timeout=30)
            return shared.u.to_array().tobytes(), shared.v.to_array().tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, k) for k in range(8)]
                reads = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reads == [serial_bits] * 8

    def test_operator_q_is_the_completed_leading_pair(self):
        for a in deferred_inputs():
            result = svd(a)
            want = (result.u.column(1).conjugate() @ result.v.column(1).transpose()
                    / result.sigma[0])
            assert realize("operator", a).q.to_array().tobytes() == want.to_array().tobytes()

    def test_rank_columns_are_phased_like_the_scalar_rule(self):
        rng = np.random.default_rng(70)
        for rows, cols in ((1, 1), (4, 3), (9, 9), (16, 5)):
            for cols_array in (random_matrix(rng, rows, cols).to_array(),
                               -random_matrix(rng, rows, cols).to_array().real + 0j,
                               -1j * random_matrix(rng, rows, cols).to_array().imag):
                want = [phase_of(cols_array[:, k]) for k in range(cols)]
                got = singular._phases_of(cols_array)
                assert got.tobytes() == np.array(want, dtype=np.complex128).tobytes()
        # pivots with a signed-zero part: the phase keeps CPython's sign of each zero
        parts = [0.0, -0.0, 3.0, -3.0, 2.0**-1074, -(2.0**-1074)]
        pivots = [complex(re, im) for re in parts for im in parts if re or im]
        pivots += [complex(-0.0, -2.0), complex(3.0, -0.0)]
        cols_array = np.array([pivots, [0.5 * z for z in pivots]])
        want = [phase_of(cols_array[:, k]) for k in range(len(pivots))]
        got = singular._phases_of(cols_array)
        assert got.tobytes() == np.array(want, dtype=np.complex128).tobytes()
