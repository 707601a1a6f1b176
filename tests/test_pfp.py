"""Partial Frobenius product: worked values, pairing laws, non-associativity."""

import warnings

import numpy as np
import pytest

from kronquot import (
    FactorShape,
    Matrix,
    QuotientScheme,
    Realization,
    ShapeError,
    UnsupportedInputError,
    kron,
    left_quotient,
    pfp,
    pfp_scalar,
    realization_for,
    realize,
    relative_residual,
    right_quotient,
)
from kronquot.matrix import _block_view
from kronquot.pfp import _pair_blocks
from oracles import allclose, family_from_realization, pair_by_index, pfp_by_double_sum


def random_matrix(rng, rows, cols):
    return Matrix.from_array(rng.uniform(-1, 1, (rows, cols))
                             + 1j * rng.uniform(-1, 1, (rows, cols)))


def test_unit_matrix_extracts_entries():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    for j in (1, 2):
        for k in (1, 2):
            assert pfp(a, Matrix.unit(2, 2, j, k)) == Matrix.from_rows([[a.entry(j, k)]])


def test_identity_collapses_to_trace():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert pfp(a, Matrix.identity(2)) == Matrix.from_rows([[5]])


def test_self_kron_worked_value():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    c = Matrix.from_rows([[5, 6], [7, 8]])
    got = pfp(a, kron(a, c))
    assert got == Matrix.from_rows([[150, 180], [210, 240]])
    # cross-check: pairing against kron(a, c) is (a paired a) * c = 30 c
    assert got == 30 * c


def test_matches_double_sum_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m_dim = int(rng.integers(1, 4))
        n_dim = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        a = random_matrix(rng, m_dim, n_dim)
        m = random_matrix(rng, m_dim * s, n_dim * t)
        assert relative_residual(pfp(a, m), pfp_by_double_sum(a, m)) < 1e-14


def test_scalar_pairing_values():
    assert pfp_scalar(Matrix.identity(2), Matrix.identity(2)) == 2
    assert pfp_scalar(Matrix.identity(2), Matrix.diagonal([1, -1])) == 0
    # bilinear, not sesquilinear: i * i = -1, no conjugation
    assert pfp_scalar(Matrix.from_rows([[1j]]), Matrix.from_rows([[1j]])) == -1


def test_scalar_pairing_shape_error():
    with pytest.raises(ShapeError):
        pfp_scalar(Matrix.identity(2), Matrix.zero(2, 3))


def test_symmetry_is_the_same_code_path():
    rng = np.random.default_rng(32)
    a = random_matrix(rng, 2, 3)
    m = random_matrix(rng, 4, 9)
    assert pfp(a, m) == pfp(m, a)


def test_equal_shapes_give_scalar_pairing():
    rng = np.random.default_rng(33)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 3, 2)
    assert pfp(a, b) == Matrix.from_rows([[pfp_scalar(a, b)]])


def test_no_divisibility_raises():
    with pytest.raises(ShapeError):
        pfp(Matrix.zero(2, 4), Matrix.zero(4, 2))
    with pytest.raises(ShapeError):
        pfp(Matrix.zero(2, 3), Matrix.zero(4, 4))


def test_transpose_law():
    rng = np.random.default_rng(34)
    for _ in range(15):
        a = random_matrix(rng, 2, 3)
        m = random_matrix(rng, 6, 6)
        assert relative_residual(pfp(a, m).transpose(),
                                 pfp(a.transpose(), m.transpose())) < 1e-13


def test_kron_factorization_law():
    # pairing against kron(b, c) peels off c: pfp(a, kron(b, c)) = kron(pfp(a, b), c)
    rng = np.random.default_rng(35)
    for _ in range(15):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 4, 6)
        c = random_matrix(rng, 2, 3)
        lhs = pfp(a, kron(b, c))
        rhs = kron(pfp(a, b), c)
        assert relative_residual(lhs, rhs) < 1e-13


def test_nested_collapse_law():
    # the big matrix can be collapsed in stages: pfp(a, kron(b, c)) = pfp(pfp(a, b), c)
    rng = np.random.default_rng(36)
    for _ in range(15):
        b = random_matrix(rng, 2, 2)
        c = random_matrix(rng, 3, 2)
        a = random_matrix(rng, 2 * 2 * 3, 3 * 2 * 2)  # (m s p) x (n t q), m=2, n=3
        lhs = pfp(a, kron(b, c))
        rhs = pfp(pfp(a, b), c)
        assert relative_residual(lhs, rhs) < 1e-13


def test_bilinearity():
    rng = np.random.default_rng(37)
    a1 = random_matrix(rng, 2, 2)
    a2 = random_matrix(rng, 2, 2)
    m1 = random_matrix(rng, 4, 6)
    m2 = random_matrix(rng, 4, 6)
    alpha, beta = 0.75 - 0.25j, -1.5 + 2j
    assert allclose(pfp(alpha * a1 + beta * a2, m1),
                    alpha * pfp(a1, m1) + beta * pfp(a2, m1))
    assert allclose(pfp(a1, alpha * m1 + beta * m2),
                    alpha * pfp(a1, m1) + beta * pfp(a1, m2))


def test_overflow_is_a_typed_error_that_names_pfp():
    a = Matrix.from_rows([[1, .5], [.25, 2]])
    big = Matrix.from_array(np.full((4, 4), 1.5e308))
    message = r"^pfp of a 2x2 and a 4x4 matrix overflows binary64$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInputError, match=message):
            pfp(a, big)


def test_scalar_pairing_overflow_is_a_typed_error():
    # einsum warns of no overflow: the sum came back as (inf+0j), and a realization
    # pairing to it failed as "pairs to (inf+0j) ... expected 1"
    big = Matrix.from_array(np.full((2, 2), 1e308))
    message = r"^pfp_scalar of a 2x2 and a 2x2 matrix overflows binary64$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInputError, match=message):
            pfp_scalar(big, big)
        with pytest.raises(UnsupportedInputError, match=message):
            realize(Realization(lambda a: a), big)


def test_non_associativity_witness():
    # one frozen triple where both groupings are defined yet disagree
    a = Matrix.identity(2)
    b = Matrix.identity(2)
    c = Matrix.from_rows([[1, 2], [3, 4]])
    grouped_left = pfp(pfp(a, b), c)
    grouped_right = pfp(a, pfp(b, c))
    assert grouped_left == Matrix.from_rows([[2, 4], [6, 8]])
    assert grouped_right == Matrix.from_rows([[5, 0], [0, 5]])
    assert grouped_left.shape == grouped_right.shape
    assert not allclose(grouped_left, grouped_right)


# (m, n, s, t): each of m, n, s and t at 1, non-square grids and blocks, t = 1 with
# four or more block rows (where a plain sum over the rows reorders), and factors up to 32
KERNEL_SHAPES = [(1, 1, 1, 1), (1, 4, 3, 2), (4, 1, 2, 3), (3, 5, 1, 2), (5, 3, 2, 1),
                 (4, 4, 2, 1), (4, 2, 3, 1), (9, 4, 3, 1), (17, 2, 1, 5), (3, 7, 4, 6),
                 (8, 8, 8, 8), (32, 8, 8, 32), (2, 32, 32, 2), (32, 32, 32, 32)]


def _dyadic(rng, rows, cols):
    """Entries whose real and imaginary parts are 0 or +-2^e, |e| <= 3."""
    def part():
        return (rng.choice([0.0, 1.0, -1.0], (rows, cols))
                * np.ldexp(1.0, rng.integers(-3, 4, (rows, cols))))
    return part() + 1j * part()


def _small_integers(rng, rows, cols):
    return (rng.integers(-8, 9, (rows, cols)) + 1j * rng.integers(-8, 9, (rows, cols))) * 1.0


def _sides(shape):
    mm, nn, s, t = shape
    return (("left", (mm, nn)), ("right", (s, t)))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_pair_blocks_is_exact_on_dyadic_data(shape):
    # every product and partial sum is exact, so any summation order gives these bits
    rng = np.random.default_rng(38)
    factor = FactorShape(*shape)
    mm, nn, s, t = shape
    dividend = Matrix.from_array(_small_integers(rng, mm * s, nn * t))
    for side, small_shape in _sides(shape):
        small = _dyadic(rng, *small_shape)
        got = _pair_blocks(small, _block_view(dividend, mm, nn, side))
        assert got.tobytes() == pair_by_index(small, dividend._a, factor, side).tobytes()


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_pair_blocks_matches_the_index_oracle(shape):
    rng = np.random.default_rng(39)
    factor = FactorShape(*shape)
    mm, nn, s, t = shape
    dividend = random_matrix(rng, mm * s, nn * t)
    for side, small_shape in _sides(shape):
        small = random_matrix(rng, *small_shape).to_array()
        got = _pair_blocks(small, _block_view(dividend, mm, nn, side))
        want = pair_by_index(small, dividend._a, factor, side)
        eps = np.finfo(np.float64).eps
        assert np.linalg.norm(got - want) <= 4 * eps * np.linalg.norm(want)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_one_block_row_pairs_as_that_row_of_the_full_pairing(shape):
    # a linear divisor reads each block row on its own; it must add over the
    # divisor's rows in the order the full pairing does, bit for bit
    rng = np.random.default_rng(40)
    mm, nn, s, t = shape
    dividend = random_matrix(rng, mm * s, nn * t)
    for side, small_shape in _sides(shape):
        small = random_matrix(rng, *small_shape).to_array()
        blocks = _block_view(dividend, mm, nn, side)
        full = _pair_blocks(small, blocks)
        for u in range(blocks.shape[1]):
            assert _pair_blocks(small, blocks[:, u:u + 1])[0].tobytes() == full[u].tobytes()


@pytest.mark.parametrize("shape", [shape for shape in KERNEL_SHAPES if max(shape) <= 9])
def test_linear_copy_of_a_uniform_scheme_gives_its_bits(shape):
    rng = np.random.default_rng(41)
    factor = FactorShape(*shape)
    mm, nn, s, t = shape
    dividend = random_matrix(rng, mm * s, nn * t)
    uniform = realization_for("frobenius")
    linear = QuotientScheme.linear(family_from_realization(uniform))
    a = random_matrix(rng, mm, nn)
    b = random_matrix(rng, s, t)
    assert left_quotient(linear, a, dividend, factor) == left_quotient(uniform, a, dividend, factor)
    assert right_quotient(linear, dividend, b, factor) \
        == right_quotient(uniform, dividend, b, factor)
