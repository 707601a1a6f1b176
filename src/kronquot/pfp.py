"""Partial Frobenius product: a block-collapsing bilinear pairing.

Pairing an m x n matrix A with an (m*s) x (n*t) matrix M gives the
s x t matrix of weighted block sums

    (A o M)[u, v] = sum_{j,k} A[j, k] * M[(j-1)s+u, (k-1)t+v].

The pairing is symmetric in its two arguments, bilinear (no conjugation
anywhere), and collapses to the plain bilinear Frobenius pairing when
s = t = 1. It is neither an inner product nor associative.

It is computed on M's block view (see :mod:`kronquot.matrix`): one batched
BLAS product pairs row j of A with the n x t matrix M4[j, u] for every
(j, u) at once, and the m partial results are then added over j in one
fixed order, ((j=0 + j=1) + j=2) + ..., whatever s is. So pairing against
one block row gives bit for bit the same entries as that row of the full
pairing. A result that overflows binary64 raises UnsupportedInputError, from
``pfp`` and ``pfp_scalar`` alike. Where only a product or partial sum of
``pfp`` overflows, as when two huge products cancel, the pairing runs again
on the larger operand scaled by an exact power of two, and the result is
scaled back.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ShapeError, UnsupportedInputError
from .matrix import Matrix, _adopt_rescaled, _block_view, _overflow_message, _pairing_growth


def _resolve_roles(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    """Order the arguments as (small, big) with small's shape dividing big's.

    When both shapes coincide the block size is 1 x 1 and the two
    readings agree, so either order works.
    """
    if b.rows % a.rows == 0 and b.cols % a.cols == 0 and a.rows <= b.rows and a.cols <= b.cols:
        return a, b
    if a.rows % b.rows == 0 and a.cols % b.cols == 0 and b.rows <= a.rows and b.cols <= a.cols:
        return b, a
    raise ShapeError(f"no block structure pairs a {a.rows}x{a.cols} with a "
                     f"{b.rows}x{b.cols} matrix: neither shape divides the other")


def _pair_blocks(small: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_{j,k} small[j,k] * blocks[j,u,k,v]: the pairing of an m x n array against
    axes 0 and 2 of a 4-axis view of a dividend, read in place; the result is fresh.

    One batched matmul gives every row-vector x matrix product small[j] @ blocks[j, u],
    and a running sum adds them over j strictly in order, which a plain sum over
    axis 0 does not promise: its order may change with the size of the other axes.
    """
    partial = np.matmul(small[:, None, None, :], blocks)
    return np.add.accumulate(partial, axis=0, out=partial)[-1, :, 0].copy()


def pfp(a: Matrix, m: Matrix) -> Matrix:
    """Partial Frobenius product of two matrices (symmetric in its arguments)."""
    small, big = _resolve_roles(a, m)
    return _adopt_rescaled(lambda x: _pair_blocks(small._a, _block_view(x, *small.shape)),
                           (big,), lambda: _pairing_growth(small._a), "pfp", a, m)


def pfp_scalar(a: Matrix, c: Matrix) -> complex:
    """Bilinear Frobenius pairing sum_{j,k} a[j,k] * c[j,k] (no conjugation).
    UnsupportedInputError where it overflows binary64."""
    if a.shape != c.shape:
        raise ShapeError(f"scalar pairing needs equal shapes, got "
                         f"{a.rows}x{a.cols} and {c.rows}x{c.cols}")
    out = complex(np.einsum("jk,jk->", a._a, c._a))
    if not cmath.isfinite(out):  # finite operands: only an overflow gets here
        raise UnsupportedInputError(_overflow_message("pfp_scalar", a, c))
    return out
