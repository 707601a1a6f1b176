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
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import BlockIndexError, NonFiniteEntryError, ShapeError, UnsupportedInputError

_MAX_INDEX = np.iinfo(np.intp).max

# A plain sum of squared magnitudes is trusted from here up to the largest
# finite float. Below it, squares may have rounded in the subnormal range:
# each is off by at most 2^-1075, under one ulp of a sum of 2^-970 or more
# for fewer than 2^52 entries.
_SAFE_SQUARES_MIN = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_MAX_FLOAT = float(np.finfo(np.float64).max)

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


class Matrix:
    """An immutable ``rows x cols`` matrix of complex floats.

    Construct from a flat row-major sequence, or use the classmethods:

    >>> Matrix(2, 2, [1, 2, 3, 4]) == Matrix.from_rows([[1, 2], [3, 4]])
    True
    """

    __slots__ = ("_a",)

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        rows = _as_positive_int(rows, "rows")
        cols = _as_positive_int(cols, "cols")
        a = np.array(entries if isinstance(entries, np.ndarray) else list(entries),
                     dtype=np.complex128)
        if a.ndim != 1 or a.size != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries for a "
                             f"{rows}x{cols} matrix, got {a.size}")
        self._a = Matrix._adopt(a.reshape(rows, cols))._a

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
        a = np.array(arr, dtype=np.complex128, order="C")
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
        return cls._adopt(a)

    @classmethod
    def _adopt(cls, a: np.ndarray) -> Matrix:
        """The matrix holding a non-empty 2-D array, frozen in place without a copy.

        No one may write ``a`` afterwards. UnsupportedInputError unless it is
        C-contiguous complex128, NonFiniteEntryError unless its entries are finite.
        """
        if a.dtype != np.complex128 or not a.flags.c_contiguous:
            raise UnsupportedInputError("a matrix adopts only C-contiguous complex128 data, "
                                        f"got {a.dtype} with strides {a.strides}")
        if not np.isfinite(a).all():
            raise NonFiniteEntryError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        m = object.__new__(cls)
        m._a = a
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls._adopt(np.zeros((_as_positive_int(rows, "rows"),
                                    _as_positive_int(cols, "cols")), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._adopt(np.eye(_as_positive_int(n, "n"), dtype=np.complex128))

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike]) -> Matrix:
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or not values.size:
            raise ShapeError("diagonal needs at least one value in a 1-D sequence, "
                             f"got shape {values.shape}")
        return cls._adopt(np.diag(values))

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
        return not self._a.any()

    # -- scalar reductions -------------------------------------------

    def trace(self) -> complex:
        if not self.is_square():
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        return complex(np.trace(self._a))

    def frobenius_norm(self) -> float:
        """sqrt of the summed squared entry magnitudes, accurate at every scale;
        ``inf`` only when the norm itself exceeds the largest float."""
        return _norm(self._a)

    # -- arithmetic ----------------------------------------------------

    def _same_shape(self, other: Matrix, op: str) -> None:
        if self.shape != other.shape:
            raise ShapeError(f"cannot {op} a {self.rows}x{self.cols} and a "
                             f"{other.rows}x{other.cols} matrix")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "add")
        return Matrix._adopt(self._a + other._a)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "subtract")
        return Matrix._adopt(self._a - other._a)

    def __neg__(self):
        return Matrix._adopt(-self._a)

    def __mul__(self, k):
        if isinstance(k, Matrix):
            raise TypeError("use A @ B for the matrix product")
        return Matrix._adopt(self._a * complex(k))

    __rmul__ = __mul__

    def __truediv__(self, k):
        if isinstance(k, Matrix):
            raise TypeError("matrix/matrix division is not defined; see the quotient schemes")
        return Matrix._adopt(self._a / complex(k))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        return Matrix._adopt(self._a @ other._a)

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

    def compatible(self, matrix: Matrix) -> bool:
        return matrix.rows == self.m * self.s and matrix.cols == self.n * self.t

    def require(self, matrix: Matrix, what: str = "matrix") -> None:
        if not self.compatible(matrix):
            raise ShapeError(
                f"{what} is {matrix.rows}x{matrix.cols}, expected "
                f"{self.m * self.s}x{self.n * self.t} for factor shape "
                f"(m={self.m}, n={self.n}, s={self.s}, t={self.t})")


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block matrix whose (i, j) block is a[i,j] * b."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if rows > _MAX_INDEX or cols > _MAX_INDEX or rows * cols > _MAX_INDEX:
        raise ShapeError(f"Kronecker product size {rows}x{cols} exceeds the platform index range")
    return Matrix._adopt(np.kron(a._a, b._a))


def block(m: Matrix, shape: FactorShape, i: int, j: int) -> Matrix:
    """The s x t block in block-row i, block-column j (1-based)."""
    shape.require(m)
    i, j = _as_index(i, "block row"), _as_index(j, "block column")
    if not (1 <= i <= shape.m and 1 <= j <= shape.n):
        raise BlockIndexError(f"block ({i},{j}) outside the {shape.m}x{shape.n} block grid")
    s, t = shape.s, shape.t
    return Matrix.from_array(m._a[(i - 1) * s : i * s, (j - 1) * t : j * t])


def _squares(arr: np.ndarray) -> float:
    return float(np.vdot(arr, arr).real)


def _exponent(arr: np.ndarray) -> int:
    """Binary exponent e of the largest real or imaginary part of a contiguous complex
    array, which 2^-e puts in [0.5, 1); 0 when every part is zero."""
    return math.frexp(float(np.abs(arr.view(np.float64)).max()))[1]


def _ldexp(arr: np.ndarray, exp: int) -> np.ndarray:
    """2^exp * arr for a contiguous complex array, exact wherever the result is normal."""
    return np.ldexp(arr.view(np.float64), exp).view(np.complex128)


def _scaled_squares(arr: np.ndarray) -> tuple[float, int]:
    """Sum of squared magnitudes of 2^-e * arr for a contiguous complex array, and e:
    e = 0 where no square of arr can have overflowed or lost digits to underflow,
    else the exponent that puts arr's largest real or imaginary part in [0.5, 1)."""
    total = _squares(arr)
    if _SAFE_SQUARES_MIN <= total <= _MAX_FLOAT:
        return total, 0
    exp = _exponent(arr)
    return _squares(_ldexp(arr, -exp)), exp


def _norm(arr: np.ndarray) -> float:
    """Frobenius norm of a contiguous complex array, 2^e * ||2^-e arr|| with e from
    :func:`_scaled_squares`; ``inf`` only when the norm exceeds the largest float."""
    total, exp = _scaled_squares(arr)
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
    na2, nb2 = _squares(a._a), _squares(b._a)
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
