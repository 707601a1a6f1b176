"""Singular value decomposition with a total output convention.

The factorization A = U * Sigma * V' (V' the conjugate transpose) is not
unique, and the operator quotient downstream takes the leading singular
pair literally, so this module pins every freedom:

* singular values are sorted in non-increasing order; which vector a
  column holds on exactly tied values is LAPACK's choice, or, for
  orthogonal columns, the input's column order (stable sort);
* each right singular vector is re-phased so that its largest-magnitude
  entry (lowest index on magnitude ties) is real and positive;
* the matching left singular vector carries the compensating phase, so
  u_k' A v_k = sigma_k >= 0;
* the decomposition is compact: U is m x r and V is n x r for
  r = max(rank, 1), the rank counting the singular values above
  max(m, n) * eps * sigma_1, and the zero matrix gives U = e1, V = e1.

So A = U_r Sigma_r V_r' (the thin SVD of Golub and Van Loan, Matrix
Computations, 4th ed., section 2.4), which is all the package reads: the
operator quotient reads the leading pair straight from the first column
of U and of V, the rank and degeneracy checks take sigma. ``sigma``
still holds all min(m, n) singular values. The phases of all columns
come from one vectorized pass over their pivots, with the bits of
CPython's scalar ``pivot / abs(pivot)``. The result is an immutable value.

The decomposition runs on 2^-e * A, where e is the binary exponent of
the largest real or imaginary part of any entry, and the singular values
are multiplied back by 2^e. So squared column norms never overflow,
scaling A by a power of two scales sigma by exactly that power while
entries and singular values stay in the normal range, and
UnsupportedInputError is raised only when sigma_1 itself overflows. A
wide input is decomposed through its conjugate transpose, so the working
matrix is always tall.

When the working matrix has one column, or columns that are already
orthogonal (no pair ratio |w_x' w_y| / (||w_x|| ||w_y||) of its Gram
matrix above ``_PAIR_TOL``), sigma is the column norms, V the permutation
that sorts them and U the sorted columns over sigma; no LAPACK call is
made, so identity, diagonal, permutation and unitary inputs keep exact
bits. The test rejects on the first column pair alone, before it builds
the Gram matrix, where that pair is far from orthogonal; its decision is
the Gram test's. Every other input takes U, sigma and V from LAPACK
(``np.linalg.svd``), which gives normwise accuracy, errors of order
eps * sigma_1, and no relative accuracy for tiny sigma of graded
inputs. Every consumer in the package reads sigma normwise (the rank
cutoff, the degeneracy probe, the leading pair), so none of them needs
more. A LinAlgError from LAPACK raises ConvergenceError.

Everything is a pure function of the input bits: calling twice on equal
inputs returns bit-identical results, for one build of numpy and its
LAPACK. Across BLAS thread counts the bits are pinned only up to 32 x 32:
that is the largest shape ``tests/test_svd.py``'s ``_DIGEST_SCRIPT``
decomposes under each count. A larger input may depend on the thread count
through LAPACK's blocked BLAS calls; on numpy 2.4.6, complex 90 x 91 and
128 x 128 inputs gave other sigma and U bits on one thread than on the
default count.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, UnsupportedInputError
from .matrix import Matrix, _exponent, _ldexp

_EPS = float(np.finfo(np.float64).eps)

# Two columns w_x, w_y count as orthogonal when
# |w_x' w_y| / (||w_x|| * ||w_y||) <= _PAIR_TOL.
_PAIR_TOL = 1e-14
# The first pair alone rejects above this ratio, where both squared norms reach
# _FIRST_PAIR_MIN (see _orthogonal_columns).
_FIRST_PAIR_TOL = 1e-10
_FIRST_PAIR_MIN = 2.0 ** -600

_CONJ_ONE = complex(1.0, -0.0)


@dataclasses.dataclass(frozen=True, eq=False)
class SvdResult:
    """Compact decomposition A = u * Sigma_r * v.conjugate().transpose(), made by :func:`svd`.

    ``u`` is m x r and ``v`` n x r, with orthonormal columns, for r = max(rank, 1);
    Sigma_r is the diagonal of the first r values of ``sigma``, which holds all
    min(m, n). Results compare by identity.
    """

    sigma: tuple[float, ...]
    _u_rank: np.ndarray = dataclasses.field(repr=False)
    _v_rank: np.ndarray = dataclasses.field(repr=False)

    @property
    def u(self) -> Matrix:
        return Matrix._adopt(self._u_rank)

    @property
    def v(self) -> Matrix:
        return Matrix._adopt(self._v_rank)


def _orthogonal_columns(work: np.ndarray) -> bool:
    """Whether no column pair of ``work`` has a Gram ratio above ``_PAIR_TOL``.

    The first pair is tested on its own before the Gram matrix is built: False where
    |w_0' w_1| > ``_FIRST_PAIR_TOL`` ||w_0|| ||w_1||, four orders of magnitude above
    ``_PAIR_TOL``, so the rounding of these sums against the Gram matrix's cannot
    turn an orthogonal verdict into this one. It decides only where both squared
    norms reach ``_FIRST_PAIR_MIN``, far above underflow: a squared norm that has
    underflowed makes the Gram test read the pair as orthogonal.
    """
    first, second = work[:, 0], work[:, 1]
    norm2_first, norm2_second = np.vdot(first, first).real, np.vdot(second, second).real
    if (min(norm2_first, norm2_second) >= _FIRST_PAIR_MIN and abs(np.vdot(first, second))
            > _FIRST_PAIR_TOL * math.sqrt(norm2_first) * math.sqrt(norm2_second)):
        return False
    gram = work.conj().T @ work
    norms = np.sqrt(gram.diagonal().real)
    scale = norms[:, None] * norms
    ratio = np.abs(gram)
    ratio.ravel()[::ratio.shape[0] + 1] = 0.0
    # where the scale is 0, |gram| stays and the old code read 0: a squared norm or the
    # product of two norms underflowed there, so by Cauchy-Schwarz |gram| is far below
    # _PAIR_TOL and the decision is the same
    np.divide(ratio, scale, out=ratio, where=scale > 0.0)
    return ratio.max() <= _PAIR_TOL


def _tall_svd(work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, sigma, v) for a tall ``work``: sigma sorted descending, v unitary, fresh
    and C-contiguous, and the columns of u with nonzero sigma the left singular
    vectors. One column, or orthogonal columns, are sorted stably by norm with no
    LAPACK call: v is a permutation and u the sorted columns over their norms."""
    ncols = work.shape[1]
    if ncols == 1 or _orthogonal_columns(work):
        cols = np.ascontiguousarray(work.T)
        sigma = np.sqrt(np.einsum("ij,ij->i", cols.conj(), cols).real)
        order = (-sigma).argsort(kind="stable")
        sigma = sigma[order]
        u = np.divide(cols.T[:, order], sigma, out=np.zeros(work.shape, dtype=np.complex128),
                      where=sigma > 0.0)
        return u, sigma, np.ascontiguousarray(np.eye(ncols, dtype=np.complex128)[:, order])
    u, sigma, vh = np.linalg.svd(work, full_matrices=False)
    return u, sigma, np.ascontiguousarray(vh.conj().T)


def _rank_of(sigma: Sequence[float], rows: int, cols: int) -> int:
    """How many singular values of a rows x cols matrix exceed max(rows, cols) eps sigma_1."""
    cutoff = max(rows, cols) * _EPS * sigma[0]
    return sum(x > cutoff for x in sigma)


def _phases_of(cols: np.ndarray) -> np.ndarray:
    """Unit phase of each nonzero column's largest-magnitude entry (first on ties),
    with the bits of CPython's pivot / abs(pivot): CPython divides a complex by a
    float as by complex(mag, 0.0), and numpy's complex division would not."""
    pivots = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    mag = np.hypot(pivots.real, pivots.imag)  # abs(complex) is libm's hypot; np.abs is not
    # pivot * complex(1.0, -0.0) = (re + im 0.0, im - re 0.0) exactly, as every product
    # is exact: CPython's numerators for complex(mag, 0.0), each part then divided by mag
    parts = (pivots * _CONJ_ONE).view(np.float64).reshape(-1, 2)
    return np.divide(parts, mag[:, None], out=parts).view(np.complex128).ravel()


def svd(a: Matrix) -> SvdResult:
    """Singular value decomposition under the module's fixed convention.

    The zero matrix decomposes as U = e1, V = e1, sigma all zero.
    Raises ConvergenceError if LAPACK's SVD does not converge, and
    UnsupportedInputError if the largest singular value overflows binary64.
    """
    m, n = a.rows, a.cols
    # run on 2^-e * A, e the exponent of the largest real or imaginary part:
    # squared column norms cannot overflow, and underflow only for columns
    # some 1e-154 times smaller than that part
    exp = _exponent(a._a)
    arr = _ldexp(a._a, -exp)
    wide = m < n
    try:
        vectors, sigma, right = _tall_svd(arr.conj().T if wide else arr)
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"LAPACK's SVD of the {m}x{n} input did not converge") from None
    values = sigma.tolist()
    rank = _rank_of(values, m, n)
    u, v = (right, vectors) if wide else (vectors, right)
    if rank == 0:  # the zero matrix: U = e1, V = e1
        u, v = np.eye(m, 1, dtype=np.complex128), np.eye(n, 1, dtype=np.complex128)
    else:
        adjust = _phases_of(v[:, :rank]).conj()
        u, v = u[:, :rank] * adjust, v[:, :rank] * adjust
    u.setflags(write=False)
    v.setflags(write=False)

    try:
        scaled_back = tuple(math.ldexp(x, exp) for x in values)
    except OverflowError:
        raise UnsupportedInputError(
            f"the largest singular value of the {m}x{n} input overflows binary64; "
            "rescale the input") from None
    return SvdResult(scaled_back, u, v)
