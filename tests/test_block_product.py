"""The block product's chunks: kron and remainder bytes at every chunk boundary.

``matrix._block_product`` computes block rows in chunks of at most
``_PRODUCT_CHUNK`` entries, or of one block row where a row is larger, and
builds the tiled divisor factor in the last block row. Each shape below puts
that boundary somewhere else; kron must give np.kron's bytes, and remainder
those of the broadcast-layout oracle in test_finite_proof.
"""

import numpy as np
import pytest

import kronquot.matrix as matrix
from kronquot import FactorShape, Matrix, kron, left_quotient, remainder
from test_finite_proof import numpy_remainder

CHUNK = matrix._PRODUCT_CHUNK

# (m, n, s, t) and the block rows per chunk it gives; a block row is s*n*t entries
SHAPES = {
    "uneven-last-chunk": ((10, 5, 10, 20), 4),      # chunks of 4, 4 and 2 rows
    "one-row-last-chunk": ((40, 6, 50, 1), 13),     # 13, 13, 13 and 1 rows; t = 1
    "row-is-the-chunk": ((3, 16, 16, 16), 1),       # s*n*t equal to the chunk
    "row-over-half-a-chunk": ((4, 5, 20, 30), 1),
    "row-over-the-chunk": ((3, 8, 20, 30), 1),
    "m-1": ((1, 4, 30, 40), 1),                     # the only row holds the tiled factor
    "m-1-small": ((1, 3, 2, 2), 341),
    "n-1": ((9, 1, 30, 40), 3),
    "t-1": ((6, 7, 5, 1), 117),
}


def _draws(rng, shape):
    """Uniform complex entries, real ones, and parts drawn from +-0.0, 1.5 and -2.0."""
    signed_zeros = np.array([0.0, -0.0, 1.5, -2.0])
    yield rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    yield rng.uniform(-1, 1, shape) + 0j
    yield rng.choice(signed_zeros, (*shape, 2)).view(np.complex128)[..., 0]


@pytest.mark.parametrize("dims,rows", SHAPES.values(), ids=SHAPES.keys())
def test_shapes_put_the_boundary_where_named(dims, rows):
    m, n, s, t = dims
    assert max(1, CHUNK // (s * n * t)) == rows


@pytest.mark.parametrize("dims", [dims for dims, _ in SHAPES.values()], ids=SHAPES.keys())
def test_kron_bytes_are_numpys(dims):
    m, n, s, t = dims
    rng = np.random.default_rng(81)
    for a, b in zip(_draws(rng, (m, n)), _draws(rng, (s, t))):
        got = kron(Matrix.from_array(a), Matrix.from_array(b))
        assert got.to_array().tobytes() == np.kron(a, b).tobytes()


@pytest.mark.parametrize("dims", [dims for dims, _ in SHAPES.values()], ids=SHAPES.keys())
def test_remainder_bytes_are_the_oracles(dims):
    shape = FactorShape(*dims)
    rng = np.random.default_rng(82)
    for a, dividend in zip(_draws(rng, (shape.m, shape.n)),
                           _draws(rng, (shape.m * shape.s, shape.n * shape.t))):
        a[0, 0] = 1.5  # a nonzero divisor, with its signed zeros elsewhere
        a_m, m_m = Matrix.from_array(a), Matrix.from_array(dividend)
        c = left_quotient("frobenius", a_m, m_m, shape).to_array()
        got = remainder("frobenius", a_m, m_m, shape)
        assert got.to_array().tobytes() == numpy_remainder(a, c, dividend, shape).tobytes()
