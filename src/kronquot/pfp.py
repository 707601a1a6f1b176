"""Partial Frobenius product: a block-collapsing bilinear pairing.

Pairing an m x n matrix A with an (m*s) x (n*t) matrix M gives the
s x t matrix of weighted block sums

    (A o M)[u, v] = sum_{j,k} A[j, k] * M[(j-1)s+u, (k-1)t+v].

The pairing is symmetric in its two arguments, bilinear (no conjugation
anywhere), and collapses to the plain bilinear Frobenius pairing when
s = t = 1. It is neither an inner product nor associative.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .matrix import Matrix


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


def pfp(a: Matrix, m: Matrix) -> Matrix:
    """Partial Frobenius product of two matrices (symmetric in its arguments)."""
    small, big = _resolve_roles(a, m)
    mm, nn = small.rows, small.cols
    s, t = big.rows // mm, big.cols // nn
    blocks = big._a.reshape(mm, s, nn, t)
    out = np.einsum("jk,jukv->uv", small._a, blocks)
    return Matrix._adopt(out)


def pfp_scalar(a: Matrix, c: Matrix) -> complex:
    """Bilinear Frobenius pairing sum_{j,k} a[j,k] * c[j,k] (no conjugation)."""
    if a.shape != c.shape:
        raise ShapeError(f"scalar pairing needs equal shapes, got "
                         f"{a.rows}x{a.cols} and {c.rows}x{c.cols}")
    return complex(np.einsum("jk,jk->", a._a, c._a))
