"""Adoption without a finite check: kron and remainder skip reading their result where
their operands' norms prove every real and imaginary part finite, and check it as
before where they do not.

Each case compares the result with ``Matrix.from_array`` of the same numbers computed
in numpy: the bytes, the ``frobenius_norm()`` bits, and the error where a number
overflows binary64. Scales sit where the bound just holds and just fails, where the
factors' squares underflow, and where their sums of squares are infinite.
"""

import math
import re

import numpy as np
import pytest

import kronquot.matrix as matrix
from kronquot import (
    FactorShape,
    Matrix,
    NonFiniteEntryError,
    UnsupportedInputError,
    kron,
    left_quotient,
    remainder,
)

PROOF_MAX = matrix._PROOF_MAX
JUST = 2.0 ** -20  # a relative step far above the rounding of the norms involved


@pytest.fixture
def reads(monkeypatch):
    """Every array whose sum of squares is taken from here on."""
    seen = []
    squares = matrix._squares
    monkeypatch.setattr(matrix, "_squares", lambda arr: seen.append(arr) or squares(arr))
    return seen


def was_read(result: Matrix, seen) -> bool:
    return any(np.shares_memory(arr, result._a) for arr in seen)


def complex_uniform(rng, rows, cols, scale=1.0):
    return scale * (rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols)))


def assert_matches_from_array(call, want: np.ndarray, message: str, seen, proven: bool):
    """``call()`` gives the matrix ``Matrix.from_array(want)`` gives, bit for bit and
    with the same norm, reading its result only where it is not ``proven`` finite; or,
    where ``want`` overflows, the UnsupportedInputError ``message``."""
    try:
        expected = Matrix.from_array(want)
    except NonFiniteEntryError:
        with pytest.raises(UnsupportedInputError, match=f"^{re.escape(message)}$"):
            call()
        return
    got = call()
    assert was_read(got, seen) is not proven
    assert got.to_array().tobytes() == want.tobytes()
    assert got.frobenius_norm().hex() == expected.frobenius_norm().hex()


def numpy_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.kron(a, b)


def scaled_to(arr: np.ndarray, norm: float) -> np.ndarray:
    return arr * (norm / np.linalg.norm(arr))


class TestKron:
    @pytest.mark.parametrize("side", [1 - JUST, 1 + JUST], ids=["holds", "fails"])
    def test_at_the_bound(self, side, reads):
        # ||A|| ||B|| a hair below or above the bound: every sum of squares is finite
        # (about 2^1023), and so is every entry either way
        rng = np.random.default_rng(61)
        root = math.sqrt(PROOF_MAX * side)
        a_arr = scaled_to(complex_uniform(rng, 2, 3), root)
        b_arr = scaled_to(complex_uniform(rng, 3, 2), root)
        a, b = Matrix.from_array(a_arr), Matrix.from_array(b_arr)
        assert (a.frobenius_norm() * b.frobenius_norm() <= PROOF_MAX) is (side < 1)
        assert_matches_from_array(lambda: kron(a, b), numpy_kron(a_arr, b_arr),
                                  "kron of a 2x3 and a 3x2 matrix overflows binary64",
                                  reads, proven=side < 1)

    @pytest.mark.parametrize("scales", [(2.0 ** -600, 1.0), (2.0 ** -600, 2.0 ** 500),
                                        (2.0 ** -600, 2.0 ** -600), (2.0 ** 500, 2.0 ** -600)])
    def test_squares_that_underflow(self, scales, reads):
        # a sum of squares of entries near 2^-600 underflows to 0; the bound floors it
        rng = np.random.default_rng(62)
        a_arr = complex_uniform(rng, 3, 2, scales[0])
        b_arr = complex_uniform(rng, 2, 2, scales[1])
        a, b = Matrix.from_array(a_arr), Matrix.from_array(b_arr)
        assert_matches_from_array(lambda: kron(a, b), numpy_kron(a_arr, b_arr),
                                  "kron of a 3x2 and a 2x2 matrix overflows binary64",
                                  reads, proven=True)

    @pytest.mark.parametrize("scales", [(1e200, 1e-100), (1e200, 2.0 ** -600), (1e200, 1e100),
                                        (1e200, 1e200), (1e-100, 1e200)])
    def test_infinite_sums_of_squares(self, scales, reads):
        # entries near 1e200 overflow their squares: the entrywise check decides
        rng = np.random.default_rng(63)
        a_arr = complex_uniform(rng, 2, 2, scales[0])
        b_arr = complex_uniform(rng, 1, 3, scales[1])
        a, b = Matrix.from_array(a_arr), Matrix.from_array(b_arr)
        assert_matches_from_array(lambda: kron(a, b), numpy_kron(a_arr, b_arr),
                                  "kron of a 2x2 and a 1x3 matrix overflows binary64",
                                  reads, proven=False)

    def test_a_factor_read_without_a_pass_is_summed_for_the_next_bound(self, reads):
        rng = np.random.default_rng(64)
        a, b, c = (Matrix.from_array(complex_uniform(rng, 2, 2)) for _ in range(3))
        inner = kron(a, b)
        assert not was_read(inner, reads)
        outer = kron(inner, c)
        assert was_read(inner, reads) and not was_read(outer, reads)
        assert outer.to_array().tobytes() == np.kron(inner.to_array(), c.to_array()).tobytes()


def numpy_remainder(a: np.ndarray, c: np.ndarray, m: np.ndarray, shape: FactorShape):
    """M - A kron C in M's block layout, in the products and differences remainder takes."""
    r = np.empty((shape.m, shape.s, shape.n, shape.t), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a[:, None, :, None], c[None, :, None, :], out=r)
        np.subtract(m.reshape(r.shape), r, out=r)
    return r.reshape(m.shape)


def remainder_case(scheme, a_arr, m_arr, shape, seen, proven):
    a, m = Matrix.from_array(a_arr), Matrix.from_array(m_arr)
    c = left_quotient(scheme, a, m, shape).to_array()
    message = (f"remainder of the {m.rows}x{m.cols} dividend by the {a.rows}x{a.cols} "
               f"divisor overflows binary64 at factor shape {shape}")
    assert_matches_from_array(lambda: remainder(scheme, a, m, shape),
                              numpy_remainder(a_arr, c, m_arr, shape), message, seen, proven)


class TestRemainder:
    SHAPE = FactorShape(2, 2, 2, 3)

    @staticmethod
    def amplifying(rng, x, y):
        """A = [[1, x], [0, 0]] and M with the one nonzero block y Y: the trace scheme's
        C is y Y, so ||M|| + ||A|| ||C|| is about x y ||Y||, and R's block (1, 2) is
        -x y Y, while every sum of squares stays finite up to x, y near 2^511.5."""
        a = np.array([[1, x], [0, 0]], dtype=np.complex128)
        m = np.zeros((4, 6), dtype=np.complex128)
        m[:2, :3] = scaled_to(complex_uniform(rng, 2, 3), y)
        return a, m

    @pytest.mark.parametrize("side", [1 - JUST, 1 + JUST], ids=["holds", "fails"])
    def test_at_the_bound(self, side, reads):
        rng = np.random.default_rng(71)
        root = math.sqrt(PROOF_MAX)
        a_arr, m_arr = self.amplifying(rng, root, 1.0)
        a, m = Matrix.from_array(a_arr), Matrix.from_array(m_arr)
        c = left_quotient("trace", a, m, self.SHAPE)
        # the bound is linear in y: scale it to a hair below or above the limit
        y = side * PROOF_MAX / (m.frobenius_norm() + a.frobenius_norm() * c.frobenius_norm())
        a_arr, m_arr = self.amplifying(np.random.default_rng(71), root, y)
        a, m = Matrix.from_array(a_arr), Matrix.from_array(m_arr)
        c = left_quotient("trace", a, m, self.SHAPE)
        bound = m.frobenius_norm() + a.frobenius_norm() * c.frobenius_norm()
        assert math.isfinite(bound) and (bound <= PROOF_MAX) is (side < 1)
        remainder_case("trace", a_arr, m_arr, self.SHAPE, reads, proven=side < 1)

    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius", "operator", "trace"])
    def test_squares_that_underflow(self, scheme, reads):
        # A and M near 2^-600: both sums of squares underflow, C is near 1
        rng = np.random.default_rng(72)
        a_arr = complex_uniform(rng, 2, 2, 2.0 ** -600)
        m_arr = np.kron(a_arr, complex_uniform(rng, 2, 3)) + complex_uniform(rng, 4, 6, 2.0 ** -650)
        remainder_case(scheme, a_arr, m_arr, self.SHAPE, reads, proven=True)

    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius", "operator", "trace"])
    @pytest.mark.parametrize("scales", [(1.0, 1e200), (1e200, 1e200), (1e-100, 1e200)])
    def test_infinite_sums_of_squares(self, scheme, scales, reads):
        rng = np.random.default_rng(73)
        a_arr = complex_uniform(rng, 2, 2, scales[0])
        m_arr = complex_uniform(rng, 4, 6, scales[1])
        remainder_case(scheme, a_arr, m_arr, self.SHAPE, reads, proven=False)

    def test_an_overflowing_remainder_with_infinite_sums(self, reads):
        rng = np.random.default_rng(74)
        a_arr, m_arr = self.amplifying(rng, 1e300, 1e200)
        remainder_case("trace", a_arr, m_arr, self.SHAPE, reads, proven=False)
