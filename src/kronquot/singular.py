"""One-sided Jacobi singular value decomposition with a total output convention.

The factorization A = U * Sigma * V' (V' the conjugate transpose) is not
unique, and the operator quotient downstream takes the leading singular
pair literally, so this module pins every freedom:

* singular values are sorted in non-increasing order; ties keep the
  post-sweep column order (stable sort), and which vector a column holds
  on exactly tied values depends on the rotation order below;
* each right singular vector is re-phased so that its largest-magnitude
  entry (lowest index on magnitude ties) is real and positive;
* the matching left singular vector carries the compensating phase, so
  u_k' A v_k = sigma_k >= 0;
* columns belonging to (numerically) zero singular values, and the
  extra columns of the larger unitary factor, are filled by
  Gram-Schmidt over the standard basis under the same phase rule.

The sweeps orthogonalize the columns of 2^-e * A, where e is the binary
exponent of the largest real or imaginary part of any entry, and the
singular values are multiplied back by 2^e. So squared column norms
never overflow, scaling A by a power of two scales sigma by exactly that
power while entries and singular values stay in the normal range, and
UnsupportedInputError is raised only when sigma_1 itself overflows.

Each sweep follows the round-robin (Brent-Luk) ordering: n - 1 steps
for even n, n for odd n, each step pairing disjoint columns, and every
unordered pair met exactly once. Step 0 pairs (0, 1), (2, 3), ..., and
after each sweep the columns stand in their original order again. Two
executors run the same schedule with the same rotation formula. From
``_VECTORIZE_FROM_COLS`` columns on, a step rotates all its pairs at
once: one batched 2x2 Gram product, the rotation coefficients computed
elementwise, one batched 2x2 product that applies them, and one row
permutation into the next step's pairing. Below it, a step rotates its
pairs one at a time from Python scalars. A pair whose off-diagonal ratio
is at most ``_PAIR_TOL`` is left unrotated; the sweeps stop after a
sweep that rotates nothing.

Everything is a pure function of the input bits: calling twice on equal
inputs returns bit-identical results.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, UnsupportedInputError
from .matrix import Matrix, _exponent, _ldexp

_EPS = float(np.finfo(np.float64).eps)

# Convergence: a column pair (x, y) counts as orthogonal once
# |w_x' w_y| / (||w_x|| * ||w_y||) <= _PAIR_TOL.
_PAIR_TOL = 1e-14
_SWEEPS_PER_COLUMN = 30

# Executor crossover: from this many columns on, a round-robin step rotates
# its disjoint pairs in one vectorized update; below it, one at a time. At
# 9 columns both take the same time; at 6-8 the scalar executor is 2-23%
# faster, and at 10-12 the vectorized one 14-37%.
_VECTORIZE_FROM_COLS = 9


@dataclasses.dataclass(frozen=True)
class SvdResult:
    """Decomposition A = u * Sigma * v.conjugate().transpose(), sigma on Sigma's diagonal.

    The last three fields report the Jacobi run: ``sweeps`` made (the last
    one rotated nothing), plane ``rotations`` applied, and ``offdiag_ratio``,
    the largest |w_x' w_y| / (||w_x|| ||w_y||) over the column pairs of the
    last sweep, at most ``_PAIR_TOL``.
    """

    u: Matrix
    sigma: tuple[float, ...]
    v: Matrix
    sweeps: int
    rotations: int
    offdiag_ratio: float


class _Schedule(NamedTuple):
    """One sweep of the round-robin ordering of ``ncols`` columns.

    ``steps[k]`` holds step k's disjoint pairs (x, y) with x < y. Step k
    lays the columns out as its pairs in order, followed on odd counts by
    the column it leaves unpaired; step 0's layout is 0, 1, ..., ncols-1.
    ``layout[moves[k]]`` turns step k's layout into step k+1's, and the
    last move turns it back into step 0's.
    """

    steps: tuple[tuple[tuple[int, int], ...], ...]
    moves: np.ndarray


def _layout(pairs, ncols: int) -> list[int]:
    """The pairs side by side, then the column they leave out, if any."""
    paired = [c for pair in pairs for c in pair]
    return paired + sorted(set(range(ncols)).difference(paired))


@functools.lru_cache(maxsize=64)
def _round_robin(ncols: int) -> _Schedule:
    """The Brent-Luk schedule: every unordered column pair meets once per sweep."""
    players = ncols + ncols % 2  # on odd counts, whoever meets player ncols sits out
    rounds = []
    for k in range(players - 1):
        # circle method: seat 0 stays, the others turn one seat per step,
        # and seat i meets seat players-1-i
        seats = [0] + [1 + (j + k) % (players - 1) for j in range(players - 1)]
        meetings = [(seats[i], seats[-1 - i]) for i in range(players // 2)]
        rounds.append([pair for pair in meetings if ncols not in pair])
    label = np.argsort(_layout(rounds[0], ncols))  # so that step 0 pairs (0, 1), (2, 3), ...
    steps = tuple(tuple(tuple(sorted((int(label[x]), int(label[y])))) for x, y in pairs)
                  for pairs in rounds)
    layouts = np.array([_layout(step, ncols) for step in steps])
    moves = np.take_along_axis(np.argsort(layouts, axis=1), np.roll(layouts, -1, axis=0), axis=1)
    moves.setflags(write=False)
    return _Schedule(steps, moves)


def _sweep_pairwise(stack: np.ndarray, rows: int) -> tuple[np.ndarray, int, float]:
    """One sweep, one pair at a time with scalar rotation coefficients.

    ``stack`` row j holds column j of W (its first ``rows`` entries) and
    then column j of V; both rotate together. Returns the stack, the
    rotations applied and the largest pair ratio met.
    """
    rotations = 0
    worst = 0.0
    for step in _round_robin(stack.shape[0]).steps:
        for x, y in step:
            sx = stack[x]
            sy = stack[y]
            wx = sx[:rows]
            wy = sy[:rows]
            alpha = float(np.vdot(wx, wx).real)
            beta = float(np.vdot(wy, wy).real)
            gamma = complex(np.vdot(wx, wy))
            g = abs(gamma)
            # sqrt before multiplying: alpha*beta can underflow for columns
            # far below the largest one and would mute the rotation
            scale = math.sqrt(alpha) * math.sqrt(beta)
            if scale == 0.0:
                continue
            ratio = g / scale
            worst = max(worst, ratio)
            if ratio <= _PAIR_TOL:
                continue
            rotations += 1
            phase_conj = gamma.conjugate() / g
            tau = (beta - alpha) / (2.0 * g)
            tee = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, tee)
            s = tee * c
            stack[x], stack[y] = (c * sx - (s * phase_conj) * sy,
                                  s * sx + (c * phase_conj) * sy)
    return stack, rotations, worst


_IDENTITY = np.eye(2)


def _sweep_vectorized(stack: np.ndarray, rows: int) -> tuple[np.ndarray, int, float]:
    """One sweep, rotating all of a step's disjoint pairs in one update.

    Same stack, schedule, rotation formula and return value as
    ``_sweep_pairwise``; a pair under ``_PAIR_TOL`` gets the identity.
    """
    ncols, width = stack.shape
    half = ncols // 2
    rotations = 0
    worst = 0.0
    for move in _round_robin(ncols).moves:
        pairs = stack[:2 * half].reshape(half, 2, width)
        w = pairs[:, :, :rows]
        gram = w.conj() @ w.transpose(0, 2, 1)  # gram[p, i, j] = w_i' w_j of pair p
        alpha = gram[:, 0, 0].real
        beta = gram[:, 1, 1].real
        gamma = gram[:, 0, 1]
        g = np.abs(gamma)
        scale = np.sqrt(alpha) * np.sqrt(beta)
        ratio = np.divide(g, scale, out=np.zeros(half), where=scale > 0.0)
        worst = max(worst, float(ratio.max()))
        turn = ratio > _PAIR_TOL
        count = int(np.count_nonzero(turn))
        if count:
            rotations += count
            g = np.where(turn, g, 1.0)
            tau = (beta - alpha) / (2.0 * g)
            tee = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, tee)
            s = tee * c
            phase_conj = gamma.conj() / g
            rot = np.empty((half, 2, 2), dtype=np.complex128)
            rot[:, 0, 0] = c
            rot[:, 0, 1] = -s * phase_conj
            rot[:, 1, 0] = s
            rot[:, 1, 1] = c * phase_conj
            rot[~turn] = _IDENTITY
            stack[:2 * half] = (rot @ pairs).reshape(2 * half, width)
        stack = stack[move]
    return stack, rotations, worst


def _one_sided_jacobi(work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                 tuple[int, int, float]]:
    """Orthogonalize the columns of ``work`` by round-robin plane rotations.

    Returns (w, sigma, v, (sweeps, rotations, offdiag_ratio)) with
    w = work @ v, v unitary, w's columns mutually orthogonal, and sigma =
    column norms sorted descending (w and v columns permuted to match);
    w and v are fresh arrays, v C-contiguous.
    """
    rows, ncols = work.shape
    stack = np.zeros((ncols, rows + ncols), dtype=np.complex128)
    stack[:, :rows] = work.T
    stack.reshape(-1)[rows::rows + ncols + 1] = 1.0  # V starts as the identity
    sweep = _sweep_vectorized if ncols >= _VECTORIZE_FROM_COLS else _sweep_pairwise
    budget = max(1, _SWEEPS_PER_COLUMN * ncols)
    rotations = 0
    for sweeps in range(1, budget + 1):
        stack, rotated, ratio = sweep(stack, rows)
        rotations += rotated
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge within {budget} sweeps "
            f"(off-diagonal ratio {ratio:.3e})", ratio)
    w = stack[:, :rows]
    sigma = np.sqrt(np.einsum("ij,ij->i", w.conj(), w).real)
    order = np.argsort(-sigma, kind="stable")
    v = np.ascontiguousarray(stack[:, rows:].T[:, order])
    return w.T[:, order], sigma[order], v, (sweeps, rotations, ratio)


def _rank_of(sigma, rows: int, cols: int) -> int:
    """How many singular values of a rows x cols matrix exceed max(rows, cols) eps sigma_1."""
    cutoff = max(rows, cols) * _EPS * sigma[0]
    return int(np.count_nonzero(np.asarray(sigma) > cutoff))


def _phase_of(col: np.ndarray) -> complex:
    """Unit phase of the largest-magnitude entry (first on ties)."""
    idx = int(np.argmax(np.abs(col)))
    pivot = complex(col[idx])
    mag = abs(pivot)
    if mag == 0.0:
        return 1.0 + 0.0j
    return pivot / mag


def _gram_schmidt_fill(q: np.ndarray, start: int) -> None:
    """Fill columns [start:] with phase-normalized orthonormal basis completions."""
    dim = q.shape[0]
    # Any k orthonormal columns leave some standard basis vector with
    # residual norm >= 1/sqrt(dim), so first-fit with this threshold succeeds.
    threshold = 0.5 / math.sqrt(dim)
    col = start
    for candidate in range(dim):
        if col == dim:
            return
        x = np.zeros(dim, dtype=np.complex128)
        x[candidate] = 1.0
        for _ in range(2):  # re-orthogonalize once for stability
            x = x - q[:, :col] @ (q[:, :col].conj().T @ x)
        norm = math.sqrt(float(np.vdot(x, x).real))
        if norm < threshold:
            continue
        x = x / norm
        q[:, col] = x * np.conj(_phase_of(x))
        col += 1
    if col != dim:  # unreachable: the pigeonhole bound above guarantees candidates
        raise ConvergenceError("orthonormal completion ran out of candidates", 0.0)


def svd(a: Matrix) -> SvdResult:
    """Singular value decomposition under the module's fixed convention.

    The zero matrix decomposes as U = I, V = I, sigma all zero.
    Raises ConvergenceError if the sweep budget is exhausted, and
    UnsupportedInputError if the largest singular value overflows binary64.
    """
    m, n = a.rows, a.cols
    # run on 2^-e * A, e the exponent of the largest real or imaginary part:
    # squared column norms cannot overflow, and underflow only for columns
    # some 1e-154 times smaller than that part
    exp = _exponent(a._a)
    arr = _ldexp(a._a, -exp)
    if m >= n:
        w, sigma, v, stats = _one_sided_jacobi(arr)
        u = np.zeros((m, m), dtype=np.complex128)
        data_from_w = True
    else:
        w, sigma, u, stats = _one_sided_jacobi(arr.conj().T)
        v = np.zeros((n, n), dtype=np.complex128)
        data_from_w = False

    rank = _rank_of(sigma, m, n)
    for k in range(rank):
        if data_from_w:
            u[:, k] = w[:, k] / sigma[k]
        else:
            v[:, k] = w[:, k] / sigma[k]
        adjust = np.conj(_phase_of(v[:, k]))
        v[:, k] *= adjust
        u[:, k] *= adjust
    _gram_schmidt_fill(u, rank)
    _gram_schmidt_fill(v, rank)

    try:
        scaled_back = tuple(math.ldexp(float(x), exp) for x in sigma)
    except OverflowError:
        raise UnsupportedInputError(
            f"the largest singular value of the {m}x{n} input overflows binary64; "
            "rescale the input") from None
    sweeps, rotations, ratio = stats
    return SvdResult(u=Matrix._adopt(u), sigma=scaled_back, v=Matrix._adopt(v),
                     sweeps=sweeps, rotations=rotations, offdiag_ratio=ratio)

