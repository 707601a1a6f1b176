"""Independent brute-force oracles used by the tests.

Everything here recomputes results by literal index arithmetic or by a
different algorithm than the library, so agreement is meaningful.
"""

import dataclasses
import math

import numpy as np

from kronquot import (
    DegenerateInputError,
    FactorShape,
    Matrix,
    UnsupportedInputError,
    ZeroDivisorError,
    format_scalar,
    kron,
    svd,
)
from kronquot.quotients import ZERO_THRESHOLD


def kron_by_index(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product from the entrywise index formula."""
    m, n = a.rows, a.cols
    s, t = b.rows, b.cols
    out = [[0j] * (n * t) for _ in range(m * s)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for p in range(1, s + 1):
                for q in range(1, t + 1):
                    out[(i - 1) * s + p - 1][(j - 1) * t + q - 1] = \
                        a.entry(i, j) * b.entry(p, q)
    return Matrix.from_rows(out)


def format_matrix_by_scalar(m: Matrix) -> str:
    """The matrix text format written one entry at a time with format_scalar."""
    rows = [" ".join(format_scalar(m.entry(i, j)) for j in range(1, m.cols + 1))
            for i in range(1, m.rows + 1)]
    return "\n".join([f"{m.rows} {m.cols}", *rows]) + "\n"


@dataclasses.dataclass(frozen=True)
class NzIndex:
    """1-based positions of the entries of a matrix at or above a magnitude
    threshold, and their count: the support that leopardi divides over."""

    positions: frozenset[tuple[int, int]]
    count: int

    @classmethod
    def of(cls, a: Matrix, threshold: float = ZERO_THRESHOLD) -> "NzIndex":
        pos = frozenset((i, j) for i in range(1, a.rows + 1) for j in range(1, a.cols + 1)
                        if abs(a.entry(i, j)) >= threshold)
        return cls(positions=pos, count=len(pos))


def pfp_by_double_sum(a: Matrix, m: Matrix) -> Matrix:
    """Partial Frobenius product by the literal double sum (a must be the small one)."""
    s = m.rows // a.rows
    t = m.cols // a.cols
    out = [[0j] * t for _ in range(s)]
    for u in range(1, s + 1):
        for v in range(1, t + 1):
            total = 0j
            for j in range(1, a.rows + 1):
                for k in range(1, a.cols + 1):
                    total += a.entry(j, k) * m.entry((j - 1) * s + u, (k - 1) * t + v)
            out[u - 1][v - 1] = total
    return Matrix.from_rows(out)


def shuffle_by_index(m: Matrix, mm: int, s: int, nn: int, tt: int) -> Matrix:
    """Row/column reindexing that turns kron(A, B) into kron(B, A)."""
    rows = [0] * (mm * s)
    for i in range(mm):
        for p in range(s):
            rows[p * mm + i] = i * s + p
    cols = [0] * (nn * tt)
    for j in range(nn):
        for q in range(tt):
            cols[q * nn + j] = j * tt + q
    arr = m.to_array()
    return Matrix.from_array(arr[np.ix_(rows, cols)])


def perfect_shuffle(m: int, s: int) -> Matrix:
    """Permutation moving block index (i-1)s+p to (p-1)m+i.

    With S1 = perfect_shuffle(m, s) and S2 = perfect_shuffle(n, t),
    S1 @ kron(A, B) @ S2.transpose() == kron(B, A) for A m x n, B s x t.
    """
    dim = m * s
    p = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(m):
        for q in range(s):
            p[q * m + i, i * s + q] = 1.0
    return Matrix.from_array(p)


def vanloan_factor(a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Nearest-factor formula B[i,j] = tr(Mtilde_ij^T A) / ||A||_F^2, real data only.

    Mtilde_ij picks every (i, j)-within-block entry of M (Van Loan and
    Pitsianis, "Approximation with Kronecker products", 1993). A second
    route to the library's frobenius quotient, built from selection
    matrices and traces, so the two can be checked against each other.
    """
    shape.require(m, "dividend")
    for name, mat in (("divisor", a), ("dividend", m)):
        if np.any(mat.to_array().imag != 0.0):
            raise UnsupportedInputError(f"{name} has complex entries")
    arr = a.to_array()
    norm2 = float(np.vdot(arr, arr).real)
    if norm2 == 0.0:
        raise ZeroDivisorError("quotient by the zero matrix")
    mm, nn, s, t = shape
    eye_m = Matrix.identity(mm)
    eye_n = Matrix.identity(nn)
    out = np.zeros((s, t), dtype=np.complex128)
    for i in range(1, s + 1):
        left = kron(eye_m, Matrix.basis_column(s, i)).transpose()
        for j in range(1, t + 1):
            right = kron(eye_n, Matrix.basis_column(t, j))
            m_tilde = left @ m @ right
            out[i - 1, j - 1] = (m_tilde.transpose() @ a).trace() / norm2
    return Matrix.from_array(out)


def family_from_realization(realization):
    """The component family of a uniform quotient: diagonal copies of Q(A).

    Fed to ``QuotientScheme.linear``, it makes a linear scheme that evaluates
    the uniform quotient of ``realization`` (a Realization, such as
    ``realization_for("frobenius")``) through the general linear path, a
    second route to ``left_quotient``.
    """

    def family(a: Matrix, s: int, t: int):
        q = realization.q_of(a)
        return {(u, v, u, v): q for u in range(1, s + 1) for v in range(1, t + 1)}

    return family


def jacobi_eigenvalues(h: Matrix, tol: float = 1e-13, max_sweeps: int = 100) -> list[float]:
    """Eigenvalues of a Hermitian matrix by two-sided Jacobi rotations, descending.

    Built on explicit rotation matrices and full matrix products, a
    different route than the library's one-sided column updates.
    """
    a = h.to_array()
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * max(1.0, float(np.abs(np.diag(a)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = a[p, q]
                if abs(hpq) == 0.0:
                    continue
                alpha = a[p, p].real
                beta = a[q, q].real
                phase = hpq / abs(hpq)
                tau = (beta - alpha) / (2.0 * abs(hpq))
                tee = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, tee)
                s = tee * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c * np.conj(phase)
                a = rot.conj().T @ a @ rot
    return sorted((float(x.real) for x in np.diag(a)), reverse=True)


def operator_norm(a: Matrix) -> float:
    """Largest singular value; zero exactly when the matrix is zero."""
    return svd(a).sigma[0]


def leading_pair(a: Matrix) -> tuple[Matrix, float, Matrix]:
    """Leading singular triple (u1, sigma1, v1) with u1' A v1 = sigma1 > 0."""
    if a.is_zero():
        raise DegenerateInputError("the zero matrix has no leading singular pair")
    result = svd(a)
    return result.u.column(1), result.sigma[0], result.v.column(1)
