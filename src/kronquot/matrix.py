"""Dense complex matrices, the Kronecker product and block access.

Scalars are complex binary64 throughout; real matrices are simply the
special case of zero imaginary parts. Public row/column and block
indices are 1-based (the usual linear-algebra convention); storage is
0-based row-major underneath. Values are immutable after construction
and every operation is a pure function, so concurrent use needs no
synchronization.

Copying is decided here, at the boundary. The public constructors
(``Matrix(...)``, ``from_rows``, ``from_array``) copy what the caller
passes and ``to_array()`` copies what it returns, so no caller can reach
the data a matrix holds. Every operation returns a fresh value built by
``Matrix._adopt``, which takes an array no one will write again, checks
that it is C-contiguous complex128 with finite entries, and freezes it
without a copy; the package reads other matrices' data through ``._a``.

A result is known to be finite in one of two ways. Usually adoption
reads it from the sum of squared magnitudes, :func:`_squares`: a NaN or
infinite part makes that sum non-finite, and a finite sum proves every
entry finite. Only when the sum is not finite, which huge finite entries
also cause when their squares overflow, does an entrywise ``isfinite``
pass decide; the verdict is the entrywise one either way. The matrix
keeps that sum, so its norm, and any bound built from it, costs no
second pass. Or the operation proves it: ``kron`` and the remainder bound
every real and imaginary part of their result by their operands' norms
(:func:`_norm_bound`), and the frobenius Q(A) by 2^485 unless it scales
up, and where that bound is at most ``_PROOF_MAX`` the result is computed
with no ``np.errstate`` and adopted without reading it; its sum of
squares is then taken on first use. A sum of squares is BLAS ``vdot``
over consecutive blocks of at most 8,192 entries, added in order:
OpenBLAS splits a dot product of more than 10,000 entries over its thread
pool, whose partial sums, and so whose bits, depend on the thread count.

An operation on finite operands can yield a non-finite entry only by
overflowing binary64. Every operation, the arithmetic operators and the
built-in Q(A) rules among them, computes its result through
:func:`_adopt_result`, the one place that computes a result under
``np.errstate`` so numpy does not warn, and that turns such a result into
UnsupportedInputError naming the operation and its operands' shapes. A pairing kernel can also
overflow in an intermediate whose final sum fits; the kernels that can,
pfp, the quotients and the remainder, adopt their result through
:func:`_adopt_rescaled`, which retries on operands scaled by an exact
power of two before it reports an overflow. A
non-finite scalar operand raises NonFiniteEntryError, and division by the
scalar zero ZeroDivisorError.

Every Kronecker computation shares one block layout, decided here. An
(m*s) x (n*t) matrix M read as an m x n grid of s x t blocks is the 4-axis
view M4[j, u, k, v] = M[j*s+u, k*t+v]: M.reshape(m, s, n, t), the
rearrangement of Van Loan and Pitsianis, which turns kron(A, B) into
A[j, k] B[u, v]. :func:`_block_view` reads M that way in place, and
:func:`_block_product`, the one kernel that computes Kronecker-product
entries, writes A[j, k] B[u, v] into a fresh array of that layout, less a
minuend where the remainder passes one, so that no product is formed apart
from the work that consumes it. ``kron``, ``pfp``, the quotients and the
remainder go through these two alone. A left divisor pairs against the block
grid (j, k), a right divisor against the entries within each block (u, v),
so the right view puts (u, j, v, k) first.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BlockIndexError,
    MatrixFormatError,
    NonFiniteEntryError,
    ShapeError,
    UnsupportedInputError,
    ZeroDivisorError,
)

_MAX_INDEX = np.iinfo(np.intp).max

# A plain sum of squared magnitudes is trusted from here up to the largest
# finite float. Below it, squares may have rounded in the subnormal range:
# each is off by at most 2^-1075, under one ulp of a sum of 2^-970 or more
# for fewer than 2^52 entries.
_SAFE_SQUARES_MIN = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_MAX_FLOAT = float(np.finfo(np.float64).max)
# The largest bound that proves a result finite. Each rounding is off by at most
# u = 2^-53 relative (Higham, Accuracy and Stability of Numerical Algorithms, 2.2),
# a sum of n squares by under n u for n < 2^51 entries (3.1), and a bound from
# _norm_bound takes a few more roundings: the factor of two covers them all.
_PROOF_MAX = _MAX_FLOAT / 2
# Entries per vdot call in _squares: below OpenBLAS's 10,000-entry threading cut
_SQUARES_BLOCK = 8192
# Entries per chunk of _block_product, at most. numpy allocates a broadcast product's
# ufunc buffers at the size of its call, up to 8,192 entries: chunks of half that keep
# them small beside the result, and keep a chunk and its minuend in cache
_PRODUCT_CHUNK = 4096

ScalarLike = complex | float | int


def _as_positive_int(value, what: str) -> int:
    try:
        n = operator.index(value)
    except TypeError:
        raise ShapeError(f"{what} must be an integer, got {value!r}") from None
    if n < 1:
        raise ShapeError(f"{what} must be positive, got {n}")
    return n


def _as_index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise BlockIndexError(f"{what} index must be an integer, got {value!r}") from None


def _is_number(x) -> bool:
    try:
        np.array(x, dtype=np.complex128)
    except (TypeError, ValueError):
        return False
    return x is not None  # which converts to NaN


def _reject_non_numeric(values, cols: int = 1) -> None:
    """Raise MatrixFormatError naming the first entry of ``values`` that is not a number.

    For a constructor's failure path (numpy's conversion error, or the
    finite check, since None converts to NaN), so valid input pays nothing
    for it. Positions are 1-based and row-major, ``cols`` per row when
    ``values`` is not 2-D. Returns when every entry is a number, and the
    caller re-raises its own error.
    """
    obj = np.array(values, dtype=object)
    if obj.ndim == 2:
        cols = obj.shape[1]
    for k, x in enumerate(obj.reshape(-1)):
        if not _is_number(x):
            i, j = divmod(k, cols)
            raise MatrixFormatError(f"entry ({i + 1},{j + 1}) is not a number: {x!r}") from None


def _scalar(k) -> complex:
    # complex() parses text, and a number spelled as text is not a number here
    if isinstance(k, (str, bytes)):
        raise MatrixFormatError(f"scalar is not a number: {k!r}")
    try:
        z = complex(k)
    except (TypeError, ValueError):
        raise MatrixFormatError(f"scalar is not a number: {k!r}") from None
    if not cmath.isfinite(z):
        raise NonFiniteEntryError(f"scalar must be finite (no NaN/Inf), got {k!r}")
    return z


class Matrix:
    """An immutable ``rows x cols`` matrix of complex floats.

    Construct from a flat row-major sequence, or use the classmethods:

    >>> Matrix(2, 2, [1, 2, 3, 4]) == Matrix.from_rows([[1, 2], [3, 4]])
    True
    """

    __slots__ = ("_a", "_sq")

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        rows = _as_positive_int(rows, "rows")
        cols = _as_positive_int(cols, "cols")
        values = entries if isinstance(entries, np.ndarray) else list(entries)
        try:
            a = np.array(values, dtype=np.complex128)
            if a.ndim != 1 or a.size != rows * cols:
                got = a.size if a.ndim == 1 else f"shape {a.shape}"
                raise ShapeError(f"expected a flat sequence of {rows * cols} entries for a "
                                 f"{rows}x{cols} matrix, got {got}")
            adopted = Matrix._adopt(a.reshape(rows, cols))
            self._a, self._sq = adopted._a, adopted._sq
        except (TypeError, ValueError):
            _reject_non_numeric(values, cols)
            raise

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> Matrix:
        """Build from a non-empty list of equal-length rows."""
        if not rows or not rows[0]:
            raise ShapeError("from_rows needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("rows have unequal lengths")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_array(cls, arr) -> Matrix:
        """Build from a 2-D array-like (the data is copied)."""
        try:
            a = np.array(arr, dtype=np.complex128, order="C")
            if a.ndim != 2:
                raise ShapeError(f"expected a 2-D array, got ndim={a.ndim}")
            if a.shape[0] < 1 or a.shape[1] < 1:
                raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
            return cls._adopt(a)
        except (TypeError, ValueError):
            rows = np.array(arr, dtype=object)
            if rows.ndim == 1 and len({np.size(row) for row in rows}) > 1:
                raise ShapeError("rows have unequal lengths") from None
            _reject_non_numeric(rows)
            raise

    @classmethod
    def _adopt(cls, a: np.ndarray, bound: float = math.inf) -> Matrix:
        """The matrix holding a non-empty 2-D array, frozen in place without a copy.

        No one may write ``a`` afterwards. UnsupportedInputError unless it is
        C-contiguous complex128, NonFiniteEntryError unless its entries are finite.
        ``bound``, where the caller has one, bounds every real and imaginary part of
        ``a``; where it is at most ``_PROOF_MAX`` the entries are finite and ``a`` is
        not read. Otherwise finiteness is read from the sum of squared magnitudes,
        :func:`_squares`, which the matrix keeps; only when that sum is not finite,
        from a non-finite entry or from squares of huge finite ones that overflow,
        does an entrywise check decide.
        """
        if a.dtype != np.complex128 or not a.flags.c_contiguous:
            raise UnsupportedInputError("a matrix adopts only C-contiguous complex128 data, "
                                        f"got {a.dtype} with strides {a.strides}")
        squares = None
        if not bound <= _PROOF_MAX:
            squares = _squares(a)
            if not math.isfinite(squares) and not np.isfinite(a).all():
                raise NonFiniteEntryError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        m = object.__new__(cls)
        m._a = a
        m._sq = squares
        return m

    def _sum_squares(self) -> float:
        """:func:`_squares` of the data: the sum adoption took, or taken now and kept.
        Threads that take it at once store the same value, so it needs no lock."""
        if self._sq is None:
            self._sq = _squares(self._a)
        return self._sq

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls._adopt(np.zeros((_as_positive_int(rows, "rows"),
                                    _as_positive_int(cols, "cols")), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._adopt(np.eye(_as_positive_int(n, "n"), dtype=np.complex128))

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike]) -> Matrix:
        try:
            a = np.asarray(values, dtype=np.complex128)
            if a.ndim != 1 or not a.size:
                raise ShapeError("diagonal needs at least one value in a 1-D sequence, "
                                 f"got shape {a.shape}")
            return cls._adopt(np.diag(a))
        except (TypeError, ValueError):
            obj = np.array(values, dtype=object)
            _reject_non_numeric(np.diag(obj) if obj.ndim == 1 else obj)
            raise

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int) -> Matrix:
        """The matrix with a single 1 at 1-based position (i, j)."""
        rows = _as_positive_int(rows, "rows")
        cols = _as_positive_int(cols, "cols")
        i, j = _as_index(i, "row"), _as_index(j, "column")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise BlockIndexError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
        a = np.zeros((rows, cols), dtype=np.complex128)
        a[i - 1, j - 1] = 1.0
        return cls._adopt(a)

    @classmethod
    def ones(cls, rows: int, cols: int) -> Matrix:
        return cls._adopt(np.ones((_as_positive_int(rows, "rows"),
                                   _as_positive_int(cols, "cols")), dtype=np.complex128))

    # -- basic attributes --------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def entries(self) -> tuple[complex, ...]:
        """Row-major tuple of all entries."""
        return tuple(complex(x) for x in self._a.ravel())

    def entry(self, i: int, j: int) -> complex:
        """The entry at 1-based position (i, j)."""
        i, j = _as_index(i, "row"), _as_index(j, "column")
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise BlockIndexError(f"entry ({i},{j}) outside a {self.rows}x{self.cols} matrix")
        return complex(self._a[i - 1, j - 1])

    def column(self, j: int) -> Matrix:
        j = _as_index(j, "column")
        if not 1 <= j <= self.cols:
            raise BlockIndexError(f"column {j} outside a {self.rows}x{self.cols} matrix")
        return Matrix.from_array(self._a[:, j - 1 : j])

    def to_array(self) -> np.ndarray:
        """A fresh writable complex128 copy of the data."""
        return self._a.copy()

    # -- structural operations ---------------------------------------

    def transpose(self) -> Matrix:
        return Matrix._adopt(np.ascontiguousarray(self._a.T))

    def conjugate(self) -> Matrix:
        return Matrix._adopt(self._a.conj())

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._a)

    # -- scalar reductions -------------------------------------------

    def trace(self) -> complex:
        if not self.is_square():
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        with np.errstate(over="ignore", invalid="ignore"):
            tr = complex(self._a.trace())
        if not cmath.isfinite(tr):
            raise UnsupportedInputError(
                f"trace of a {self.rows}x{self.cols} matrix overflows binary64")
        return tr

    def frobenius_norm(self) -> float:
        """sqrt of the summed squared entry magnitudes, accurate at every scale;
        ``inf`` only when the norm itself exceeds the largest float."""
        return _norm(self._a, self._sum_squares())

    # -- arithmetic ----------------------------------------------------

    def _same_shape(self, other: Matrix, op: str) -> None:
        if self.shape != other.shape:
            raise ShapeError(f"cannot {op} a {self.rows}x{self.cols} and a "
                             f"{other.rows}x{other.cols} matrix")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "add")
        return _adopt_result(lambda: self._a + other._a, "add", self, other)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "subtract")
        return _adopt_result(lambda: self._a - other._a, "subtract", self, other)

    def __neg__(self):
        return Matrix._adopt(-self._a)

    def __mul__(self, k):
        if isinstance(k, Matrix):
            raise TypeError("use A @ B for the matrix product")
        k = _scalar(k)
        return _adopt_result(lambda: self._a * k, "multiply", self, k)

    __rmul__ = __mul__

    def __truediv__(self, k):
        if isinstance(k, Matrix):
            raise TypeError("matrix/matrix division is not defined; see the quotient schemes")
        k = _scalar(k)
        if k == 0:
            raise ZeroDivisorError(f"cannot divide a {self.rows}x{self.cols} matrix by zero")
        return _adopt_result(lambda: self._a / k, "divide", self, k)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        return _adopt_result(lambda: self._a @ other._a, "matmul", self, other)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool((self._a == other._a).all())

    __hash__ = None  # mutable-looking equality; use .entries for hashing needs

    def __repr__(self):
        body = ", ".join(repr([_py(x) for x in row]) for row in self._a)
        return f"Matrix.from_rows([{body}])"


def _py(x: np.complex128):
    z = complex(x)
    return z.real if z.imag == 0.0 else z


@dataclasses.dataclass(frozen=True)
class FactorShape:
    """How an (m*s) x (n*t) matrix is read as an m x n grid of s x t blocks."""

    m: int
    n: int
    s: int
    t: int

    def __post_init__(self):
        for name in ("m", "n", "s", "t"):
            object.__setattr__(self, name, _as_positive_int(getattr(self, name), name))

    def __iter__(self):
        return iter((self.m, self.n, self.s, self.t))

    def __str__(self):
        return f"(m={self.m}, n={self.n}, s={self.s}, t={self.t})"

    def compatible(self, matrix: Matrix) -> bool:
        return matrix.rows == self.m * self.s and matrix.cols == self.n * self.t

    def require(self, matrix: Matrix, what: str = "matrix") -> None:
        if not self.compatible(matrix):
            raise ShapeError(
                f"{what} is {matrix.rows}x{matrix.cols}, expected "
                f"{self.m * self.s}x{self.n * self.t} for factor shape {self}")


def _factor_shape(shape) -> FactorShape:
    if not isinstance(shape, FactorShape):  # a tuple such as (2, 2, 2, 2) included
        raise UnsupportedInputError(f"shape must be a FactorShape, got {shape!r}")
    return shape


def _overflow_message(op: str, x: Matrix, y: Matrix | complex | None = None,
                      shape: FactorShape | None = None) -> str:
    """Says that ``op`` on x and y overflows binary64, naming the operands: a pair of
    matrices, a matrix and a scalar y, with a factor shape the dividend x and the
    divisor y, or with no y, Q(A) of the divisor x."""
    if y is None:
        return (f"{op} of the {x.rows}x{x.cols} divisor overflows binary64: "
                "its entries are too small to invert")
    if shape is not None:
        return (f"{op} of the {x.rows}x{x.cols} dividend by the {y.rows}x{y.cols} divisor "
                f"overflows binary64 at factor shape {shape}")
    if isinstance(y, Matrix):
        return f"{op} of a {x.rows}x{x.cols} and a {y.rows}x{y.cols} matrix overflows binary64"
    return f"{op} of a {x.rows}x{x.cols} matrix by {_py(y)!r} overflows binary64"


def _adopt_result(compute: Callable[[], np.ndarray], op: str, x: Matrix,
                  y: Matrix | complex | None = None, shape: FactorShape | None = None,
                  bound: float = math.inf) -> Matrix:
    """The matrix holding ``compute()``, the fresh result of ``op`` on finite operands x
    and y, computed under ``np.errstate(over="ignore", invalid="ignore")`` unless
    ``bound``, on every real and imaginary part of it, is at most ``_PROOF_MAX``: then
    nothing can overflow, and the result is adopted unread. A non-finite entry can only
    come from an overflow, and raises UnsupportedInputError with :func:`_overflow_message`."""
    if bound <= _PROOF_MAX:
        return Matrix._adopt(compute(), bound)
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    try:
        return Matrix._adopt(out)
    except NonFiniteEntryError:
        raise UnsupportedInputError(_overflow_message(op, x, y, shape)) from None


def _adopt_rescaled(kernel: Callable[..., np.ndarray], operands: Sequence[Matrix],
                    growth: Callable[[], int], op: str, x: Matrix, y: Matrix,
                    shape: FactorShape | None = None, bound: float = math.inf) -> Matrix:
    """``_adopt_result(lambda: kernel(*operands), op, x, y, shape, bound)`` for a kernel
    linear in its matrix ``operands`` jointly.

    Where the result is not finite, an intermediate may have overflowed while the
    result fits, as when two huge products cancel. Only then is ``growth()`` called:
    it bounds the kernel, so that where every real and imaginary part of the operands
    lies below 2^k, every product and partial sum lies below 2^(k + growth). The
    kernel runs again on 2^-e times each operand, e >= 1 picked so that none of those
    reaches 2^1022, and its result is scaled back by 2^e, exactly wherever the scaled
    values are normal. UnsupportedInputError only where that result overflows too.
    """
    try:
        return _adopt_result(lambda: kernel(*operands), op, x, y, shape, bound)
    except UnsupportedInputError:
        e = max(max(_exponent(z._a) for z in operands) + growth() - 1022, 1)
    scaled = [Matrix._adopt(_ldexp(z._a, -e)) for z in operands]
    return _adopt_result(lambda: _ldexp(kernel(*scaled), e), op, x, y, shape)


def _pairing_growth(factor: np.ndarray) -> int:
    """The growth, as :func:`_adopt_rescaled` takes it, of pairing ``factor`` with an
    operand: each entry sums factor.size products of complex parts, each part of a
    product below 2^(e + k + 1) with e = :func:`_exponent` of the factor, plus one bit
    for rounding."""
    return _exponent(factor) + 2 + (factor.size - 1).bit_length()


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block matrix whose (i, j) block is a[i,j] * b, written
    by :func:`_block_product` in chunks of block rows, each entry the product np.kron
    forms. UnsupportedInputError where an entry overflows binary64."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if rows > _MAX_INDEX or cols > _MAX_INDEX or rows * cols > _MAX_INDEX:
        raise ShapeError(f"Kronecker product size {rows}x{cols} exceeds the platform index range")
    # every part of a[j, k] b[u, v] is at most |a[j, k]| |b[u, v]| <= ||A||_F ||B||_F
    return _adopt_result(lambda: _block_product(a, b), "kron", a, b,
                         bound=_norm_bound(a) * _norm_bound(b))


def _block_view(x: Matrix, m: int, n: int, side: str = "left") -> np.ndarray:
    """x read in place as an m x n grid of blocks, a view of its data and never a copy:
    (j, u, k, v) for a divisor on the ``"left"``, which pairs against axes 0 and 2,
    and (u, j, v, k) for one on the ``"right"``."""
    blocks = x._a.reshape(m, x.rows // m, n, x.cols // n)
    return blocks if side == "left" else blocks.transpose(1, 0, 3, 2)


def _block_product(a: Matrix, b: Matrix, minuend: np.ndarray | None = None) -> np.ndarray:
    """kron(a, b), or ``minuend - kron(a, b)``, in a fresh (m*s) x (n*t) array, for an
    m x n a and an s x t b; ``minuend`` is any C-contiguous complex array of that size,
    read in place.

    Block row j is a[j], each entry repeated t times, times b tiled n times, which
    puts a[j, k] b[u, v] at (u, k*t + v): each multiply runs over n*t contiguous
    entries of both operands and forms the products np.kron forms. The block rows go
    in chunks of at most ``_PRODUCT_CHUNK`` entries, or of one block row where a row
    is larger, and each chunk is subtracted from the minuend while it is still in
    cache, so no second result-sized array is made and none is read twice.

    The tiled b is built in the last block row, so it needs no array of its own. The
    chunk holding that row reads it as an input that overlaps the output, which
    numpy computes as if the input were copied first; where the row is a chunk by
    itself, input and output are the same view, and numpy works in place.
    """
    (m, n), (s, t) = a.shape, b.shape
    out = np.empty((m, s, n * t), dtype=np.complex128)
    tiled = out[m - 1:]
    tiled.reshape(s, n, t)[...] = b._a[:, None, :]
    rows = max(1, _PRODUCT_CHUNK // tiled.size)
    repeated = np.empty((min(rows, m), 1, n * t), dtype=np.complex128)
    spread = repeated.reshape(-1, n, t)
    if minuend is not None:
        minuend = minuend.reshape(out.shape)
    for start in range(0, m, rows):
        end = min(start + rows, m)
        spread[:end - start] = a._a[start:end, :, None]
        chunk = out[start:end]
        np.multiply(repeated[:end - start], tiled, out=chunk)
        if minuend is not None:
            np.subtract(minuend[start:end], chunk, out=chunk)
    return out.reshape(m * s, n * t)


def block(m: Matrix, shape: FactorShape, i: int, j: int) -> Matrix:
    """The s x t block in block-row i, block-column j (1-based)."""
    _factor_shape(shape).require(m)
    i, j = _as_index(i, "block row"), _as_index(j, "block column")
    if not (1 <= i <= shape.m and 1 <= j <= shape.n):
        raise BlockIndexError(f"block ({i},{j}) outside the {shape.m}x{shape.n} block grid")
    s, t = shape.s, shape.t
    return Matrix.from_array(m._a[(i - 1) * s : i * s, (j - 1) * t : j * t])


def _squares(arr: np.ndarray) -> float:
    """Sum of squared magnitudes of a complex array: ``vdot`` over consecutive blocks
    of at most ``_SQUARES_BLOCK`` entries, added in order, so that no call reaches
    OpenBLAS's thread pool and the bits do not depend on its thread count. Up to one
    block it is a single ``vdot(arr, arr)``."""
    if arr.size <= _SQUARES_BLOCK:
        return float(np.vdot(arr, arr).real)
    flat = arr.reshape(-1)
    total = 0.0  # a Python float: a sum that overflows is inf, without a warning
    for start in range(0, flat.size, _SQUARES_BLOCK):
        part = flat[start:start + _SQUARES_BLOCK]
        total += float(np.vdot(part, part).real)
    return total


def _norm_bound(x: Matrix) -> float:
    """An upper bound on ||x||_F, within the rounding ``_PROOF_MAX`` allows for: the
    square root of x's sum of squares floored at ``_SAFE_SQUARES_MIN``, which covers
    squares lost to underflow; ``inf`` where that sum overflows."""
    return math.sqrt(max(x._sum_squares(), _SAFE_SQUARES_MIN))


def _exponent(arr: np.ndarray) -> int:
    """Binary exponent e of the largest real or imaginary part of a contiguous complex
    array, which 2^-e puts in [0.5, 1); 0 when every part is zero."""
    return math.frexp(float(np.maximum.reduce(np.abs(arr.view(np.float64)), axis=None)))[1]


def _ldexp(arr: np.ndarray, exp: int) -> np.ndarray:
    """2^exp * arr for a contiguous complex array, exact wherever the result is normal;
    ``arr`` itself when exp is 0, so the caller must only read the result."""
    if exp == 0:
        return arr
    return np.ldexp(arr.view(np.float64), exp).view(np.complex128)


def _scaled_squares(arr: np.ndarray, total: float | None = None) -> tuple[float, int]:
    """Sum of squared magnitudes of 2^-e * arr for a contiguous complex array, and e:
    e = 0 where no square of arr can have overflowed or lost digits to underflow,
    else the exponent that puts arr's largest real or imaginary part in [0.5, 1).
    ``total`` is :func:`_squares` of arr where the caller has it."""
    if total is None:
        total = _squares(arr)
    if _SAFE_SQUARES_MIN <= total <= _MAX_FLOAT:
        return total, 0
    exp = _exponent(arr)
    return _squares(_ldexp(arr, -exp)), exp


def _norm(arr: np.ndarray, total: float | None = None) -> float:
    """Frobenius norm of a contiguous complex array, 2^e * ||2^-e arr|| with e from
    :func:`_scaled_squares`, given ``total`` as it is; ``inf`` only when the norm
    exceeds the largest float."""
    total, exp = _scaled_squares(arr, total)
    try:
        return math.ldexp(math.sqrt(total), exp)
    except OverflowError:
        return math.inf


def relative_residual(a: Matrix, b: Matrix) -> float:
    """Frobenius distance scaled by max(1, norms); the residual metric of the checks.

    Never NaN: where a norm or the distance could overflow or lose digits to
    underflow, all three are taken on a and b scaled by one exact power of two.
    """
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare a {a.rows}x{a.cols} and a {b.rows}x{b.cols} matrix")
    na2, nb2 = a._sum_squares(), b._sum_squares()
    if max(na2, nb2) <= _MAX_FLOAT:
        # no entry exceeds sqrt of the largest float, so neither can the difference
        diff = a._a - b._a
        num2 = _squares(diff)
        if num2 >= _SAFE_SQUARES_MIN:
            return math.sqrt(num2) / max(1.0, math.sqrt(na2), math.sqrt(nb2))
        if not diff.any():
            return 0.0
    # ||a' - b'|| 2^e / max(1, ||a'|| 2^e, ||b'|| 2^e) with a' = 2^-e a and b' = 2^-e b
    exp = max(_exponent(a._a), _exponent(b._a))
    sa, sb = _ldexp(a._a, -exp), _ldexp(b._a, -exp)
    num = _norm(sa - sb)
    top = math.sqrt(max(_squares(sa), _squares(sb)))
    if exp > 0 or math.ldexp(top, exp) >= 1.0:
        return num / top
    return math.ldexp(num, exp)
