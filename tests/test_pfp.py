"""Partial Frobenius product: worked values, pairing laws, non-associativity."""

import numpy as np
import pytest

from kronquot import Matrix, ShapeError, kron, pfp, pfp_scalar, relative_residual
from oracles import allclose, pfp_by_double_sum


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
