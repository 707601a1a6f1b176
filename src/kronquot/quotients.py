"""Left and right Kronecker quotients, remainders, and divisor tests.

A left quotient undoes the Kronecker product from the left: for every
scheme here and every nonzero A,

    left_quotient(scheme, A, kron(A, B), shape) == B

up to floating-point error. Schemes differ in what they do on matrices
that are *not* exact Kronecker products:

* ``leopardi``   -- average of the blockwise ratios M_ij / A_ij over the
                    nonzero entries of A;
* ``weighted``   -- the same average under a caller-supplied weight rule
                    (weights sum to 1 over the nonzero entries);
* ``frobenius``  -- pairing with conj(A)/||A||_F^2; equivalently the
                    factor C minimizing ||M - kron(A, C)||_F;
* ``operator``   -- pairing with the rank-one matrix built from the
                    leading singular pair of A;
* ``trace``      -- pairing with I/tr(A), the unique uniform rule with
                    tr(M) = tr(A) tr(A quot M) on square blocks;
* ``linear``     -- a general linear rule given by a component family
                    Q[u,v,u',v'] with Q[u,v,u',v'] paired against A
                    equal to delta_uu' * delta_vv'.

All but ``linear`` are uniform: a realization A -> Q(A) defines them
as A quot M = pfp(Q(A), M), and :func:`left_quotient` evaluates every
one of them through that single pipeline. ``BUILTIN_SCHEMES`` is the
one table of the built-in schemes. A right quotient reindexes its
dividend by a reshape that swaps the Kronecker factor order (the
perfect shuffle) and divides on the left.

All scheme objects are immutable and every evaluation is pure;
user-supplied weight rules and component families must themselves be
pure and reentrant to keep that guarantee.
"""

from __future__ import annotations

import dataclasses
from itertools import product
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidFamilyError,
    InvalidRealizationError,
    InvalidWeightsError,
    ShapeError,
    SingularRealizationError,
    ZeroDivisorError,
)
from .matrix import FactorShape, Matrix, kron
from .pfp import pfp, pfp_scalar
from .singular import leading_pair

# Entries below this magnitude count as zero wherever we divide by them;
# comparing against exact 0.0 would admit subnormal-sized divisors.
ZERO_THRESHOLD = 1e-300

REALIZATION_TOLERANCE = 1e-10
WEIGHT_SUM_TOLERANCE = 1e-12
FAMILY_TOLERANCE = 1e-10

WeightRule = Callable[[Matrix], Matrix]
FamilyRule = Callable[[Matrix, int, int], Mapping[tuple[int, int, int, int], Matrix]]


@dataclasses.dataclass(frozen=True)
class Realization:
    """Rule A -> Q(A) defining a uniform quotient A quot M = pfp(Q(A), M).

    Q(A) must have A's shape and satisfy pfp_scalar(Q(A), A) = 1; the
    package checks this at every evaluation point. ``square_only`` marks
    a rule defined only on square A with nonzero trace, and
    ``support_sensitive`` one that reads which entries of A are zero;
    the law checks draw their divisors accordingly.
    """

    q_of: Callable[[Matrix], Matrix]
    label: str = "custom"
    square_only: bool = False
    support_sensitive: bool = False

    def describe(self) -> str:
        return f"uniform({self.label})"


@dataclasses.dataclass(frozen=True)
class QuotientScheme:
    """A named quotient rule; build via the classmethod constructors."""

    kind: str
    weight_rule: WeightRule | None = None
    q_family: FamilyRule | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in BUILTIN_SCHEMES and self.kind not in ("weighted", "linear"):
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "weighted" and self.weight_rule is None:
            raise ConfigurationError("weighted scheme needs a weight rule")
        if self.kind == "linear" and self.q_family is None:
            raise ConfigurationError("linear scheme needs a component family")

    @classmethod
    def leopardi(cls) -> QuotientScheme:
        return cls(kind="leopardi")

    @classmethod
    def frobenius(cls) -> QuotientScheme:
        return cls(kind="frobenius")

    @classmethod
    def operator(cls) -> QuotientScheme:
        return cls(kind="operator")

    @classmethod
    def trace(cls) -> QuotientScheme:
        return cls(kind="trace")

    @classmethod
    def weighted(cls, rule: WeightRule, name: str | None = None) -> QuotientScheme:
        label = name or getattr(rule, "__name__", "custom")
        return cls(kind="weighted", weight_rule=rule, label=label)

    @classmethod
    def linear(cls, family: FamilyRule, name: str | None = None) -> QuotientScheme:
        label = name or getattr(family, "__name__", "custom")
        return cls(kind="linear", q_family=family, label=label)

    def describe(self) -> str:
        if self.kind in ("weighted", "linear"):
            return f"{self.kind}({self.label})"
        return self.kind


# -- built-in weight rules -------------------------------------------

def leopardi_weights(a: Matrix) -> Matrix:
    """Equal weight 1/nnz(A) on every nonzero entry."""
    support = np.abs(a.to_array()) >= ZERO_THRESHOLD
    count = int(support.sum())
    if count == 0:
        raise ZeroDivisorError("cannot weight the zero matrix")
    return Matrix.from_array(support / count)


def _norm_squared(a: Matrix) -> float:
    # sum of squared magnitudes, computed without the sqrt/square round trip
    arr = a.to_array()
    return float(np.vdot(arr, arr).real)


def frobenius_weights(a: Matrix) -> Matrix:
    """Weight |a_ij|^2 / ||A||_F^2: each entry by its share of the energy."""
    norm2 = _norm_squared(a)
    if norm2 == 0.0:
        raise ZeroDivisorError("cannot weight the zero matrix")
    arr = a.to_array()
    return Matrix.from_array((arr.real**2 + arr.imag**2) / norm2)


def _validate_weights(w: Matrix, a: Matrix, support: np.ndarray) -> np.ndarray:
    """The weights as an array, once they sum to 1 on A's support and vanish off it."""
    if w.shape != a.shape:
        raise InvalidWeightsError(f"weight rule returned a {w.rows}x{w.cols} matrix "
                                  f"for a {a.rows}x{a.cols} argument")
    warr = w.to_array()
    total = complex(warr[support].sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise InvalidWeightsError(f"weights over the nonzero entries sum to {total}, expected 1")
    if float(np.abs(warr[~support]).sum()) > WEIGHT_SUM_TOLERANCE:
        raise InvalidWeightsError("weight rule puts weight on zero entries of its argument")
    return warr


# -- shape plumbing ---------------------------------------------------

def _check_left_shapes(a: Matrix, m: Matrix, shape: FactorShape) -> None:
    if (a.rows, a.cols) != (shape.m, shape.n):
        raise ShapeError(f"divisor is {a.rows}x{a.cols}, expected "
                         f"{shape.m}x{shape.n} for factor shape "
                         f"(m={shape.m}, n={shape.n}, s={shape.s}, t={shape.t})")
    shape.require(m, "dividend")


def _require_nonzero(a: Matrix) -> None:
    if a.frobenius_norm() == 0.0:
        raise ZeroDivisorError("quotient by the zero matrix")


# -- realizations of the built-in uniform schemes ----------------------

def weighted_realization(rule: WeightRule, name: str | None = None) -> Realization:
    """Q(A)[i,j] = W(A)[i,j] / A[i,j] on the nonzero entries, 0 elsewhere."""

    def q_of(a: Matrix) -> Matrix:
        arr = a.to_array()
        support = np.abs(arr) >= ZERO_THRESHOLD
        if not support.any():
            raise ZeroDivisorError(
                "quotient by the zero matrix (no entries above the zero threshold)")
        warr = _validate_weights(rule(a), a, support)
        return Matrix.from_array(np.divide(warr, arr, out=np.zeros_like(arr), where=support))

    return Realization(q_of=q_of, label=name or getattr(rule, "__name__", "weighted"),
                       support_sensitive=True)


def _frobenius_q(a: Matrix) -> Matrix:
    norm2 = _norm_squared(a)
    if norm2 == 0.0:
        raise ZeroDivisorError("quotient by the zero matrix")
    return a.conjugate() / norm2


def _operator_q(a: Matrix) -> Matrix:
    if a.is_zero():
        raise ZeroDivisorError("quotient by the zero matrix")
    u1, sigma1, v1 = leading_pair(a)
    return (u1.conjugate() @ v1.transpose()) / sigma1


def trace_realization(a: Matrix) -> Matrix:
    """Q(A) = I/tr(A), defined for square matrices with nonzero trace."""
    if not a.is_square():
        raise ShapeError(f"trace realization needs a square matrix, got {a.rows}x{a.cols}")
    tr = a.trace()
    if tr == 0:
        raise SingularRealizationError(
            "trace realization Q(A) = I/tr(A) is undefined: tr(A) = 0")
    return Matrix.identity(a.rows) / tr


@dataclasses.dataclass(frozen=True)
class BuiltinScheme:
    """A built-in uniform scheme: its realization and, when the scheme is a
    weighted average, the weight rule W with Q(A) = W(A)/A on A's support."""

    realization: Realization
    weights: WeightRule | None = None


# The one table of built-in schemes: the CLI's --scheme choices, scheme
# names in the law checks and report descriptors all resolve here.
BUILTIN_SCHEMES: dict[str, BuiltinScheme] = {
    "leopardi": BuiltinScheme(weighted_realization(leopardi_weights, "leopardi"),
                              weights=leopardi_weights),
    "frobenius": BuiltinScheme(Realization(_frobenius_q, "frobenius"),
                               weights=frobenius_weights),
    "operator": BuiltinScheme(Realization(_operator_q, "operator")),
    "trace": BuiltinScheme(Realization(trace_realization, "trace", square_only=True)),
}


def leopardi_realization() -> Realization:
    return BUILTIN_SCHEMES["leopardi"].realization


def frobenius_realization() -> Realization:
    return BUILTIN_SCHEMES["frobenius"].realization


def operator_realization() -> Realization:
    return BUILTIN_SCHEMES["operator"].realization


def trace_scheme_realization() -> Realization:
    return BUILTIN_SCHEMES["trace"].realization


def realization_for(scheme: QuotientScheme) -> Realization:
    """The realization of a uniform scheme; linear schemes have none."""
    if scheme.kind == "weighted":
        return weighted_realization(scheme.weight_rule, scheme.label)
    if scheme.kind == "linear":
        raise ConfigurationError(f"scheme {scheme.describe()!r} is not uniform: "
                                 "it has no single-matrix realization")
    return BUILTIN_SCHEMES[scheme.kind].realization


def family_from_realization(realization: Realization) -> FamilyRule:
    """The component family of a uniform quotient: diagonal copies of Q(A)."""

    def family(a: Matrix, s: int, t: int):
        q = realization.q_of(a)
        return {(u, v, u, v): q for u in range(1, s + 1) for v in range(1, t + 1)}

    return family


# -- evaluation ----------------------------------------------------------

def left_quotient(scheme, a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Left quotient of M by A under the given scheme (or realization).

    A uniform scheme evaluates as pfp(Q(A), M) once Q(A) is checked to
    have A's shape and to pair to 1 against A; a linear scheme goes
    through :func:`linear_quotient`.
    """
    if isinstance(scheme, QuotientScheme):
        if scheme.kind == "linear":
            return linear_quotient(scheme.q_family, a, m, shape)
        scheme = realization_for(scheme)
    elif not isinstance(scheme, Realization):
        raise ConfigurationError(f"expected a QuotientScheme or Realization, got {scheme!r}")
    _check_left_shapes(a, m, shape)
    if a.is_zero():
        raise ZeroDivisorError("quotient by the zero matrix")
    q = scheme.q_of(a)
    if not isinstance(q, Matrix) or q.shape != a.shape:
        raise InvalidRealizationError("realization must return a matrix of the divisor's shape")
    unit = pfp_scalar(q, a)
    if abs(unit - 1.0) > REALIZATION_TOLERANCE:
        raise InvalidRealizationError(
            f"realization pairs to {unit} against its argument, expected 1")
    return pfp(q, m)


def leopardi_quotient(a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Average of block(M, i, j) / A[i, j] over the nonzero entries of A."""
    return left_quotient(QuotientScheme.leopardi(), a, m, shape)


def weighted_quotient(weight_rule: WeightRule, a: Matrix, m: Matrix,
                      shape: FactorShape) -> Matrix:
    """Weighted average of blockwise ratios under a unit-sum weight rule."""
    return left_quotient(weighted_realization(weight_rule), a, m, shape)


def frobenius_quotient(a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Quotient minimizing ||M - kron(A, C)||_F over the factor C."""
    return left_quotient(QuotientScheme.frobenius(), a, m, shape)


def operator_quotient(a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Quotient reading only the leading singular direction of the divisor."""
    return left_quotient(QuotientScheme.operator(), a, m, shape)


def uniform_quotient(realization: Realization, a: Matrix, m: Matrix,
                     shape: FactorShape) -> Matrix:
    """Evaluate A quot M = pfp(Q(A), M) for a realization A -> Q(A)."""
    return left_quotient(realization, a, m, shape)


def linear_quotient(family: FamilyRule, a: Matrix, m: Matrix,
                    shape: FactorShape) -> Matrix:
    """Evaluate a general linear quotient from its component family.

    ``family(a, s, t)`` returns a mapping from 1-based component indices
    (u, v, u', v') to m x n matrices; missing components count as zero.
    The family is validated eagerly: component (u,v,u',v') must pair to
    delta_uu' * delta_vv' against the divisor.
    """
    _check_left_shapes(a, m, shape)
    _require_nonzero(a)
    s, t = shape.s, shape.t
    components = dict(family(a, s, t))
    for (u, v, u2, v2), comp in components.items():
        if not (1 <= u <= s and 1 <= u2 <= s and 1 <= v <= t and 1 <= v2 <= t):
            raise InvalidFamilyError(f"component index ({u},{v},{u2},{v2}) outside "
                                     f"the {s}x{t} block size")
        if comp.shape != a.shape:
            raise InvalidFamilyError(f"component ({u},{v},{u2},{v2}) is "
                                     f"{comp.rows}x{comp.cols}, expected {a.rows}x{a.cols}")
    for u, v in product(range(1, s + 1), range(1, t + 1)):
        for u2, v2 in product(range(1, s + 1), range(1, t + 1)):
            expected = 1.0 if (u == u2 and v == v2) else 0.0
            comp = components.get((u, v, u2, v2))
            if comp is None:
                paired = 0.0
            else:
                paired = pfp_scalar(comp, a)
            if abs(paired - expected) > FAMILY_TOLERANCE:
                raise InvalidFamilyError(
                    f"component ({u},{v},{u2},{v2}) pairs to {paired} against the "
                    f"divisor, expected {expected}")
    out = np.zeros((s, t), dtype=np.complex128)
    for (u, v, u2, v2), comp in components.items():
        out[u2 - 1, v2 - 1] += pfp(comp, m).entry(u, v)
    return Matrix.from_array(out)


def remainder(scheme, a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """M - kron(A, left_quotient(...)): what the divisor fails to explain."""
    return m - kron(a, left_quotient(scheme, a, m, shape))


def negligible_remainder(r: Matrix, m: Matrix, *, rtol: float = 1e-10,
                         atol: float = 1e-12) -> bool:
    """Whether a remainder r of M vanishes up to atol + rtol * ||M||_F."""
    return r.frobenius_norm() <= atol + rtol * m.frobenius_norm()


def is_divisor(scheme, a: Matrix, m: Matrix, shape: FactorShape, *,
               rtol: float = 1e-10, atol: float = 1e-12) -> bool:
    """Whether the remainder vanishes up to atol + rtol * ||M||_F."""
    return negligible_remainder(remainder(scheme, a, m, shape), m, rtol=rtol, atol=atol)


def right_quotient(scheme, m: Matrix, b: Matrix, shape: FactorShape) -> Matrix:
    """Right quotient recovering the left factor: (A kron B) rquot B = A.

    The dividend's rows and columns are reindexed so that kron(A, B)
    becomes kron(B, A) -- the perfect shuffle, applied as a reshape --
    and the result is divided on the left by B.
    """
    if (b.rows, b.cols) != (shape.s, shape.t):
        raise ShapeError(f"divisor is {b.rows}x{b.cols}, expected "
                         f"{shape.s}x{shape.t} for factor shape "
                         f"(m={shape.m}, n={shape.n}, s={shape.s}, t={shape.t})")
    shape.require(m, "dividend")
    mm, nn, s, t = shape
    swapped = m.to_array().reshape(mm, s, nn, t).transpose(1, 0, 3, 2).reshape(s * mm, t * nn)
    return left_quotient(scheme, b, Matrix.from_array(swapped), FactorShape(s, t, mm, nn))
