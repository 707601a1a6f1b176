"""The copy rule: Matrix copies at its public boundary, and operations adopt their results.

An operation's result array becomes a Matrix without a copy, so its traced
peak stays near one result buffer; the package reads matrix data through
``._a`` and never copies it out with ``to_array()``.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kronquot import (
    FactorShape,
    Matrix,
    UnsupportedInputError,
    is_divisor,
    kron,
    remainder,
    right_quotient,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kronquot"

K = 16
BUFFER = (K * K) ** 2 * np.dtype(np.complex128).itemsize  # one 256 x 256 complex result


def _factor(rng):
    return Matrix.from_array(rng.uniform(-1, 1, (K, K)) + 1j * rng.uniform(-1, 1, (K, K)))


def _peak_in_buffers(call) -> float:
    """The traced allocation peak during ``call()``, in 256 x 256 result buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / BUFFER


rng = np.random.default_rng(13)
A, B = _factor(rng), _factor(rng)
M = kron(A, B)
SHAPE = FactorShape(K, K, K, K)


@pytest.mark.parametrize("call,bound", [
    # one result buffer, plus numpy's ufunc buffers at the size of one chunk of the
    # block product (4,096 entries, 64 KiB: a sixteenth of this buffer) and the
    # chunk's repeated row of A; a second result-sized temporary, or chunks big
    # enough to fill numpy's 8,192-entry buffers (1.39 here), exceed the bound
    (lambda: kron(A, B), 1.1),
    # the right quotient reads the dividend in place: no dividend-sized temporary
    (lambda: right_quotient("frobenius", M, B, SHAPE), 0.1),
    # the same, with each chunk subtracted from the dividend, read in place
    (lambda: remainder("frobenius", A, M, SHAPE), 1.1),
    (lambda: is_divisor("frobenius", A, M, SHAPE), 1.1),
    (lambda: M.transpose(), 1.5),
    (lambda: M + M, 1.5),
    (lambda: 2 * M, 1.5),
], ids=["kron", "right_quotient", "remainder", "is_divisor", "transpose", "add", "scale"])
def test_results_are_adopted_not_copied(call, bound):
    assert _peak_in_buffers(call) <= bound


@pytest.mark.parametrize("arr", [np.zeros((2, 2)), np.zeros((2, 3), dtype=complex).T],
                         ids=["float64", "not-c-contiguous"])
def test_adopt_refuses_other_layouts(arr):
    with pytest.raises(UnsupportedInputError, match="C-contiguous complex128"):
        Matrix._adopt(arr)


def test_package_code_copies_only_at_the_boundary():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert ".to_array()" not in text, path.name
        # from_array copies: only slices of another matrix's data go through it
        args = re.findall(r"\.from_array\(([^)]*)\)", text)
        assert all(re.match(r"\w+\._a\[", arg) for arg in args), (path.name, args)
