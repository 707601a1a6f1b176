"""Matrix core: construction, kron, blocks, reductions, product laws."""

import math
import re

import numpy as np
import pytest

import kronquot.matrix as matrix_mod
from kronquot import (
    BlockIndexError,
    FactorShape,
    Matrix,
    NonFiniteEntryError,
    ShapeError,
    block,
    kron,
    relative_residual,
)
from oracles import allclose, kron_by_index


def random_matrix(rng, rows, cols, integer=False):
    if integer:
        arr = (rng.integers(-8, 9, (rows, cols))
               + 1j * rng.integers(-8, 9, (rows, cols))).astype(complex)
    else:
        arr = rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
    return Matrix.from_array(arr)


class TestConstruction:
    def test_flat_and_rows_agree(self):
        assert Matrix(2, 3, [1, 2, 3, 4, 5, 6]) == Matrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_entry_count_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix(2, 2, [1, 2, 3])

    def test_nonpositive_dims(self):
        with pytest.raises(ShapeError):
            Matrix(0, 2, [])
        with pytest.raises(ShapeError):
            Matrix.zero(2, -1)

    @pytest.mark.parametrize("make,error,text", [
        (lambda: Matrix(2.5, 1, [1, 2]), ShapeError, "rows must be an integer"),
        (lambda: Matrix.from_rows([]), ShapeError, "at least one row"),
        (lambda: Matrix.from_rows([[1, 2], [3]]), ShapeError, "unequal lengths"),
        (lambda: Matrix.from_array(np.zeros(3)), ShapeError, "ndim=1"),
        (lambda: Matrix.from_array(np.zeros((0, 2))), ShapeError, "must be positive"),
        (lambda: Matrix.diagonal([]), ShapeError, "at least one value"),
        (lambda: Matrix.unit(2, 2, 3, 1), BlockIndexError, "entry (3,1)"),
        (lambda: Matrix.identity(2).column(3), BlockIndexError, "column 3"),
        (lambda: Matrix.unit(2, 2, 1.5, 1), BlockIndexError,
         "row index must be an integer, got 1.5"),
        (lambda: Matrix.identity(2).column(1.5), BlockIndexError,
         "column index must be an integer, got 1.5"),
    ], ids=["non-integer", "no-rows", "ragged", "ndim", "empty-dim", "diagonal",
            "unit-index", "column-index", "unit-float-index", "column-float-index"])
    def test_malformed_construction_names_the_fault(self, make, error, text):
        with pytest.raises(error, match=re.escape(text)):
            make()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteEntryError):
            Matrix(1, 2, [1.0, bad])
        with pytest.raises(NonFiniteEntryError):
            Matrix.from_array(np.array([[bad]]))

    def test_immutable(self):
        m = Matrix.identity(2)
        arr = m.to_array()
        arr[0, 0] = 5.0
        assert m == Matrix.identity(2)

    def test_entry_is_one_based(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.entry(1, 2) == 2
        assert m.entry(2, 1) == 3
        with pytest.raises(BlockIndexError):
            m.entry(0, 1)
        with pytest.raises(BlockIndexError):
            m.entry(1, 3)
        with pytest.raises(BlockIndexError, match="row index must be an integer, got 1.5"):
            m.entry(1.5, 1)

    def test_unit_and_basis_column(self):
        assert Matrix.unit(2, 3, 1, 2) == Matrix.from_rows([[0, 1, 0], [0, 0, 0]])
        assert Matrix.unit(3, 1, 2, 1) == Matrix.from_rows([[0], [1], [0]])

    def test_repr_round_trips(self):
        m = Matrix.from_rows([[1, 0.1, -2.5e-300], [1 / 3 + 2j, -1j, 0]])
        assert eval(repr(m), {"Matrix": Matrix}) == m

    def test_entries_are_row_major(self):
        assert Matrix.from_rows([[1, 2], [3, 4]]).entries == (1, 2, 3, 4)

    def test_factor_shape_compatibility(self):
        shape = FactorShape(2, 3, 2, 2)
        assert shape.compatible(Matrix.zero(4, 6))
        assert not shape.compatible(Matrix.zero(4, 4))
        with pytest.raises(ShapeError):
            FactorShape(2, 0, 1, 1)


class TestKron:
    def test_identity_case(self):
        assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_row_times_column(self):
        got = kron(Matrix.from_rows([[1, 2]]), Matrix.from_rows([[3], [4]]))
        assert got == Matrix.from_rows([[3, 6], [4, 8]])

    def test_zero_annihilates(self):
        b = Matrix.from_rows([[1, 2], [3, 4]])
        assert kron(Matrix.zero(1, 1), b) == Matrix.zero(2, 2)

    def test_size_beyond_the_index_range_rejected(self, monkeypatch):
        monkeypatch.setattr(matrix_mod, "_MAX_INDEX", 3)
        with pytest.raises(ShapeError, match="index range"):
            kron(Matrix.identity(2), Matrix.identity(2))

    def test_matches_index_oracle(self):
        # 1-ulp slack: the vectorized product kernel may fuse multiply-adds
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            b = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            assert relative_residual(kron(a, b), kron_by_index(a, b)) < 1e-15

    def test_matches_index_oracle_exactly_on_integers(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            a = random_matrix(rng, 3, 2, integer=True)
            b = random_matrix(rng, 2, 4, integer=True)
            assert kron(a, b) == kron_by_index(a, b)


class TestBlock:
    def test_blocks_of_kron_are_scaled_copies(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 3, 2)
        b = random_matrix(rng, 2, 4)
        shape = FactorShape(3, 2, 2, 4)
        m = kron(a, b)
        for i in range(1, 4):
            for j in range(1, 3):
                assert allclose(block(m, shape, i, j), a.entry(i, j) * b)

    def test_single_block_shape(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert block(m, FactorShape(1, 1, 2, 2), 1, 1) == m

    def test_direct_submatrix_read(self):
        m = Matrix.from_rows([[1, 2, 10, 20], [3, 4, 30, 40]])
        got = block(m, FactorShape(1, 2, 2, 2), 1, 2)
        assert got == Matrix.from_rows([[10, 20], [30, 40]])

    def test_shape_and_index_errors(self):
        m = Matrix.identity(4)
        with pytest.raises(ShapeError):
            block(m, FactorShape(3, 3, 2, 2), 1, 1)
        with pytest.raises(BlockIndexError):
            block(m, FactorShape(2, 2, 2, 2), 3, 1)
        with pytest.raises(BlockIndexError):
            block(m, FactorShape(2, 2, 2, 2), 1, 0)
        with pytest.raises(BlockIndexError, match="block row index must be an integer, got 1.0"):
            block(Matrix.identity(2), FactorShape(1, 1, 2, 2), 1.0, 1)

    def test_block_kron_round_trip_is_exact(self):
        rng = np.random.default_rng(6)
        m = random_matrix(rng, 6, 6)
        shape = FactorShape(2, 3, 3, 2)
        rebuilt = np.zeros((6, 6), dtype=complex)
        for i in range(1, 3):
            for j in range(1, 4):
                piece = block(m, shape, i, j).to_array()
                rebuilt[(i - 1) * 3 : i * 3, (j - 1) * 2 : j * 2] = piece
        assert Matrix.from_array(rebuilt) == m


class TestEntrywiseOps:
    def test_transpose(self):
        assert Matrix.from_rows([[1, 2], [3, 4]]).transpose() == \
            Matrix.from_rows([[1, 3], [2, 4]])

    def test_conjugate(self):
        assert Matrix.from_rows([[1j]]).conjugate() == Matrix.from_rows([[-1j]])

    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 3, 2)
        adjoint = a.conjugate().transpose()
        assert adjoint.conjugate().transpose() == a
        assert adjoint == Matrix.from_array(a.to_array().conj().T)


class TestReductions:
    def test_trace_identity(self):
        assert Matrix.identity(5).trace() == 5

    def test_trace_needs_square(self):
        with pytest.raises(ShapeError):
            Matrix.zero(2, 3).trace()

    def test_frobenius_norm_hand_value(self):
        assert Matrix.from_rows([[3, 4]]).frobenius_norm() == pytest.approx(5.0)

    def test_frobenius_norm_zero_iff_zero(self):
        assert Matrix.zero(3, 2).frobenius_norm() == 0.0
        assert Matrix.unit(3, 2, 2, 1).frobenius_norm() > 0.0


class TestExtremeScales:
    """Norms and residuals of 2^e * A where squared entries overflow or underflow."""

    BASE = Matrix.from_rows([[3, 4j], [-12, 0]])  # Frobenius norm exactly 13

    @staticmethod
    def scaled(mat, e):
        arr = mat.to_array()
        return Matrix.from_array(np.ldexp(arr.real, e) + 1j * np.ldexp(arr.imag, e))

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_frobenius_norm_is_exact(self, e):
        want = math.ldexp(13.0, e)
        assert abs(self.scaled(self.BASE, e).frobenius_norm() - want) <= 2 * math.ulp(want)
        rng = np.random.default_rng(7)
        mat = Matrix.from_array(rng.uniform(-1, 1, (3, 4)) + 1j * rng.uniform(-1, 1, (3, 4)))
        want = math.ldexp(mat.frobenius_norm(), e)
        assert abs(self.scaled(mat, e).frobenius_norm() - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_relative_residual_is_never_nan(self, e):
        # ||a - b|| / max(1, ||a||, ||b||): relative above unit scale, absolute below
        a = self.scaled(self.BASE, e)
        zero = Matrix.zero(2, 2)
        want = 1.0 if e > 0 else math.ldexp(13.0, e)
        for got in (relative_residual(a, zero), relative_residual(zero, a)):
            assert abs(got - want) <= 2 * math.ulp(want)
        want = 0.5 if e > 0 else math.ldexp(13.0, e)
        assert abs(relative_residual(a, 2 * a) - want) <= 2 * math.ulp(want)
        assert relative_residual(a, a) == 0.0

    def test_norm_overflow_is_infinite_and_residual_finite(self):
        big = Matrix.from_array(np.full((2, 2), 1.5e308))
        assert big.frobenius_norm() == math.inf
        assert relative_residual(big, -big) == pytest.approx(2.0, rel=1e-15)

    def test_normal_range_keeps_the_plain_sum(self):
        rng = np.random.default_rng(8)
        arr = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        a, b = Matrix.from_array(arr), Matrix.from_array(arr * 1.5 + 0.25)
        assert a.frobenius_norm() == math.sqrt(float(np.vdot(arr, arr).real))
        diff = arr - b.to_array()
        assert relative_residual(a, b) == math.sqrt(float(np.vdot(diff, diff).real)) / max(
            1.0, a.frobenius_norm(), b.frobenius_norm())


class TestProductLaws:
    """The product identities the quotient work leans on."""

    def test_transpose_of_kron_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            b = random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())

    def test_bilinearity_exact_on_integer_data(self):
        # dyadic data keeps both evaluation orders exact, so == is fair
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_matrix(rng, 2, 3, integer=True)
            c = random_matrix(rng, 2, 3, integer=True)
            b = random_matrix(rng, 3, 2, integer=True)
            d = random_matrix(rng, 3, 2, integer=True)
            assert kron(a + c, b) == kron(a, b) + kron(c, b)
            assert kron(a, b + d) == kron(a, b) + kron(a, d)
            for k in (2, -2, 0.5):
                assert k * kron(a, b) == kron(k * a, b)
                assert k * kron(a, b) == kron(a, k * b)

    def test_bilinearity_float_within_tolerance(self):
        rng = np.random.default_rng(13)
        a = random_matrix(rng, 3, 2)
        c = random_matrix(rng, 3, 2)
        b = random_matrix(rng, 2, 4)
        assert allclose(kron(a + c, b), kron(a, b) + kron(c, b))

    def test_associativity_exact_on_integer_data(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = random_matrix(rng, 2, 2, integer=True)
            b = random_matrix(rng, 2, 3, integer=True)
            c = random_matrix(rng, 3, 2, integer=True)
            assert kron(a, kron(b, c)) == kron(kron(a, b), c)

    def test_associativity_float_within_tolerance(self):
        rng = np.random.default_rng(15)
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 3, 2)
        c = random_matrix(rng, 2, 3)
        assert relative_residual(kron(a, kron(b, c)), kron(kron(a, b), c)) < 1e-14

    def test_mixed_product(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            a = random_matrix(rng, 3, 2)
            g = random_matrix(rng, 2, 4)
            b = random_matrix(rng, 2, 3)
            h = random_matrix(rng, 3, 2)
            lhs = kron(a, b) @ kron(g, h)
            rhs = kron(a @ g, b @ h)
            assert relative_residual(lhs, rhs) < 1e-10

    def test_trace_of_kron(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            a = random_matrix(rng, 3, 3)
            b = random_matrix(rng, 2, 2)
            got = kron(a, b).trace()
            want = a.trace() * b.trace()
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestComparisons:
    def test_allclose_uses_atol_and_rtol(self):
        a = Matrix.from_rows([[1.0]])
        assert allclose(a, Matrix.from_rows([[1.0 + 1e-11]]))
        assert not allclose(a, Matrix.from_rows([[1.0 + 1e-8]]))

    def test_relative_residual_scale(self):
        a = Matrix.from_rows([[1e6]])
        b = Matrix.from_rows([[1e6 + 1.0]])
        assert relative_residual(a, b) == pytest.approx(1e-6, rel=1e-3)

    def test_scalar_multiplication_rejects_matrix(self):
        with pytest.raises(TypeError):
            Matrix.identity(2) * Matrix.identity(2)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            Matrix.zero(2, 3) @ Matrix.zero(2, 3)

    def test_add_and_subtract_need_one_shape(self):
        with pytest.raises(ShapeError, match="cannot add a 2x3 and a 3x2"):
            Matrix.zero(2, 3) + Matrix.zero(3, 2)
        with pytest.raises(ShapeError, match="cannot subtract a 2x3 and a 3x2"):
            Matrix.zero(2, 3) - Matrix.zero(3, 2)

    def test_relative_residual_needs_one_shape(self):
        with pytest.raises(ShapeError, match="cannot compare a 2x3 and a 3x2"):
            relative_residual(Matrix.zero(2, 3), Matrix.zero(3, 2))

    def test_operators_decline_non_matrices(self):
        m = Matrix.identity(2)
        for op in (lambda: m + 1, lambda: m - 1, lambda: m @ 1):
            with pytest.raises(TypeError):
                op()
        assert m.__eq__(1) is NotImplemented
        assert m != 1

    def test_matrix_division_rejected(self):
        with pytest.raises(TypeError, match="quotient schemes"):
            Matrix.identity(2) / Matrix.identity(2)
