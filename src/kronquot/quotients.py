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
as A quot M = pfp(Q(A), M). Every scheme evaluates in two steps.
:func:`realize` depends on the divisor alone: it rejects an exactly
zero A; under a uniform scheme it computes Q(A), checks that Q(A) has
A's shape and pairs to 1 against A, and returns a :class:`Divisor`
(for the operator scheme, holding the SVD Q(A) was built from); under a
linear scheme, a :class:`LinearDivisor`. The value then applies to any
number of dividends, ``divisor.quotient(M, shape)``; nothing is cached
between calls. :func:`left_quotient` checks the shapes, realizes and
applies once. ``BUILTIN_SCHEMES`` maps each built-in name to its
:class:`Realization`, the one record that declares ``square_only``,
``support_sensitive`` and ``weights``.

Every dividend kernel reads M in place through the one block view of
:mod:`kronquot.matrix`, which describes the layout. The right quotient
is the left one's pairing over the other two axes, and equals the left
quotient of the perfect shuffle of M, which turns kron(A, B) into
kron(B, A), without building that shuffled copy. Both pairings are the
one kernel of :mod:`kronquot.pfp`, a batched BLAS row-vector x matrix
product over the view followed by a sum over the divisor's rows in one
fixed order. A remainder subtracts the block product of A and C from
M's view, in that product's fresh buffer. Where a quotient or a
remainder overflows binary64, it raises UnsupportedInputError naming the
operation, the operands' shapes and the factor shape. An intermediate
overflow whose result fits does not: on that failure path the kernel
runs again on the dividend scaled by an exact power of two.

There is one scheme type per kind. A uniform scheme is a
:class:`Realization`: a ``BUILTIN_SCHEMES`` entry, or one made by
:func:`weighted_realization` or by hand. A linear scheme is a
:class:`LinearScheme`, made by ``QuotientScheme.linear(family)``.
``QuotientScheme`` only gathers constructors that return these objects.
A scheme is given as such an object or as a string: a built-in name
(``"frobenius"``) or a descriptor a report records (``uniform(frobenius)``,
``weighted(leopardi_weights)``). Every entry point accepts each form through
the one resolver :func:`resolve_scheme`, and every form of one scheme
records the one descriptor its object's ``describe()`` gives.

Scale: every built-in Q satisfies Q(2^e A) = Q(A)/2^e, and squared norms
are taken on 2^-e A, so no divisor scale decides a result. :func:`is_divisor`
and CLI ``rem`` judge a remainder relative to ||M||_F alone. Two exact
thresholds are intended: the weighted rules divide on A's normal entries
(``ZERO_THRESHOLD`` is the smallest normal float), whose reciprocals are
finite, and the trace rule rejects only ``tr(A) == 0``, so a trace of
1e-300 gives a Q near 1e300. Where Q(A) overflows binary64, as for
[[1e-310, 0], [0, 0]], :func:`realize` raises UnsupportedInputError.

All scheme objects are immutable and every evaluation is pure;
user-supplied weight rules and component families must themselves be
pure and reentrant to keep that guarantee.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from itertools import product
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidFamilyError,
    InvalidRealizationError,
    InvalidWeightsError,
    NonFiniteEntryError,
    ShapeError,
    SingularRealizationError,
    UnsupportedInputError,
    ZeroDivisorError,
)
from .matrix import (FactorShape, Matrix, _adopt_rescaled, _adopt_result, _block_product,
                     _block_view, _exponent, _factor_shape, _ldexp, _norm, _norm_bound,
                     _overflow_message, _pairing_growth, _scaled_squares)
from .pfp import _pair_blocks, pfp, pfp_scalar
from .singular import SvdResult, svd

# A's support for the weighted rules: its normal entries, whose reciprocals are finite
ZERO_THRESHOLD = float(np.finfo(np.float64).tiny)

REALIZATION_TOLERANCE = 1e-10
# is_divisor's bound on ||R||_F / ||M||_F; no absolute term, so no scale decides
REMAINDER_TOLERANCE = 1e-10
WEIGHT_SUM_TOLERANCE = 1e-12
FAMILY_TOLERANCE = 1e-10

WeightRule = Callable[[Matrix], Matrix]
FamilyRule = Callable[[Matrix, int, int], Mapping[tuple[int, int, int, int], Matrix]]
_Kernel = tuple[Callable[[np.ndarray], np.ndarray], Callable[[], int]]


@dataclasses.dataclass(frozen=True)
class Realization:
    """Rule A -> Q(A) defining a uniform quotient A quot M = pfp(Q(A), M).

    Q(A) must have A's shape and satisfy pfp_scalar(Q(A), A) = 1; the
    package checks this at every evaluation point. ``square_only`` marks
    a rule defined only on square A with nonzero trace, and
    ``support_sensitive`` one that reads which entries of A are zero;
    the law checks draw their divisors accordingly. ``weights``, when
    the scheme is a weighted average, is the rule W with Q(A) = W(A)/A
    on A's support; the weight-condition checks run on it.
    """

    q_of: Callable[[Matrix], Matrix]
    label: str = "custom"
    square_only: bool = False
    support_sensitive: bool = False
    weights: WeightRule | None = None

    def describe(self) -> str:
        """The one descriptor reports record for this scheme, however it was named:
        the bare name of a ``BUILTIN_SCHEMES`` entry, ``weighted(label)`` for a rule
        that declares its weights, as every :func:`weighted_realization` does, and
        ``uniform(label)`` for any other."""
        if BUILTIN_SCHEMES.get(self.label) is self:
            return self.label
        return f"{'uniform' if self.weights is None else 'weighted'}({self.label})"


@dataclasses.dataclass(frozen=True)
class LinearScheme:
    """A general linear quotient, fixed by its component family; :func:`realize`
    turns it into a :class:`LinearDivisor`. Build one with ``QuotientScheme.linear``."""

    family: FamilyRule
    label: str

    def __post_init__(self):
        if not callable(self.family):
            raise ConfigurationError(
                f"linear scheme needs a component family, got {self.family!r}")

    def describe(self) -> str:
        return f"linear({self.label})"


# -- built-in weight rules -------------------------------------------

def leopardi_weights(a: Matrix) -> Matrix:
    """Equal weight 1/nnz(A) on every nonzero entry."""
    support = np.abs(a._a) >= ZERO_THRESHOLD
    count = np.count_nonzero(support)
    if count == 0:
        if a.is_zero():
            raise ZeroDivisorError("cannot weight the zero matrix")
        raise UnsupportedInputError(f"cannot weight the {a.rows}x{a.cols} divisor: "
                                    "its nonzero entries are all subnormal")
    return Matrix._adopt((support / count).astype(np.complex128))


def frobenius_weights(a: Matrix) -> Matrix:
    """Weight |a_ij|^2 / ||A||_F^2, each entry's share of the energy, taken on 2^-e A."""
    norm2, exp = _scaled_squares(a._a, a._sum_squares())
    if norm2 == 0.0:
        raise ZeroDivisorError("cannot weight the zero matrix")
    arr = _ldexp(a._a, -exp)
    return Matrix._adopt(((arr.real**2 + arr.imag**2) / norm2).astype(np.complex128))


def _validate_weights(w: Matrix, a: Matrix, support: np.ndarray) -> np.ndarray:
    """The weights as an array, once they sum to 1 on A's support and vanish off it."""
    if w.shape != a.shape:
        raise InvalidWeightsError(f"weight rule returned a {w.rows}x{w.cols} matrix "
                                  f"for a {a.rows}x{a.cols} argument")
    warr = w._a
    total = complex(np.add.reduce(warr[support]))
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise InvalidWeightsError(f"weights over the nonzero entries sum to {total}, expected 1")
    off = warr[~support]
    if off.size and np.add.reduce(np.abs(off)) > WEIGHT_SUM_TOLERANCE:
        raise InvalidWeightsError("weight rule puts weight on zero entries of its argument")
    return warr


# -- operand checks --------------------------------------------------

def _check_shapes(divisor: Matrix, m: Matrix, shape: FactorShape, side: str = "left") -> None:
    """The shape is a FactorShape, the divisor is m x n on the ``"left"`` and s x t on
    the ``"right"``, and the dividend fits the factor shape."""
    shape = _factor_shape(shape)
    rows, cols = (shape.m, shape.n) if side == "left" else (shape.s, shape.t)
    if divisor.shape != (rows, cols):
        raise ShapeError(f"divisor is {divisor.rows}x{divisor.cols}, expected "
                         f"{rows}x{cols} for factor shape {shape}")
    shape.require(m, "dividend")


def _check_nonzero(a: Matrix) -> None:
    if a.is_zero():
        raise ZeroDivisorError("quotient by the zero matrix")


# -- realizations of the built-in uniform schemes ----------------------

def weighted_realization(rule: WeightRule, name: str | None = None) -> Realization:
    """Q(A)[i,j] = W(A)[i,j] / A[i,j] on the nonzero entries, 0 elsewhere; a
    ConfigurationError when ``rule`` is not callable."""
    if not callable(rule):
        raise ConfigurationError(f"weighted scheme needs a weight rule, got {rule!r}")

    def q_of(a: Matrix) -> Matrix:
        arr = a._a
        support = np.abs(arr) >= ZERO_THRESHOLD
        if not np.count_nonzero(support):
            _check_nonzero(a)
            raise UnsupportedInputError(_overflow_message("Q(A)", a))
        # a caller's weight rule runs under the helper's guard too
        return _adopt_result(lambda: np.divide(_validate_weights(rule(a), a, support), arr,
                                               out=np.zeros(arr.shape, np.complex128),
                                               where=support), "Q(A)", a)

    return Realization(q_of=q_of, label=name or getattr(rule, "__name__", "custom"),
                       support_sensitive=True, weights=rule)


def _frobenius_q(a: Matrix) -> Matrix:
    """conj(A)/||A||_F^2, taken as 2^-e conj(A')/||A'||_F^2 with A' = 2^-e A."""
    norm2, exp = _scaled_squares(a._a, a._sum_squares())
    if norm2 == 0.0:
        raise ZeroDivisorError("quotient by the zero matrix")
    # unscaled, every |Q[i,j]| <= 1/||A'|| <= 2^485, and scaling back by 2^-exp can
    # overflow only where exp < 0
    return _adopt_result(lambda: _ldexp(_ldexp(a._a, -exp).conj() / complex(norm2), -exp),
                         "Q(A)", a, bound=2.0**485 if exp >= 0 else math.inf)


def _operator_q(a: Matrix, decomposition: SvdResult | None = None) -> Matrix:
    """conj(u1) v1^T / sigma1 from the leading singular pair of a nonzero A, read from
    ``decomposition``, the SVD of A, or from one taken here. The pair is the first
    columns of the compact U and V as a contiguous conjugated column times a
    contiguous row: the operands the matrix product of two Matrix values takes."""
    if decomposition is None:
        _check_nonzero(a)
        decomposition = svd(a)
    u1 = decomposition._u_rank[:, :1].conj()
    v1 = np.ascontiguousarray(decomposition._v_rank[:, :1].T)
    return _adopt_result(lambda: (u1 @ v1) / complex(decomposition.sigma[0]), "Q(A)", a)


def trace_realization(a: Matrix) -> Matrix:
    """Q(A) = I/tr(A), defined for square matrices with nonzero trace."""
    if not a.is_square():
        raise ShapeError(f"trace realization needs a square matrix, got {a.rows}x{a.cols}")
    with np.errstate(over="ignore", invalid="ignore"):
        tr = complex(a._a.trace())
    if not (math.isfinite(tr.real) and math.isfinite(tr.imag)):
        raise UnsupportedInputError(f"tr(A) of the {a.rows}x{a.cols} divisor overflows binary64")
    if tr == 0:
        raise SingularRealizationError("trace realization Q(A) = I/tr(A) is undefined: tr(A) = 0")
    # the bits of Matrix.identity(n) / tr
    return _adopt_result(lambda: np.eye(a.rows, dtype=np.complex128) / tr, "Q(A)", a)


# The one table of built-in schemes: the CLI's --scheme choices, scheme
# names in the law checks and report descriptors all resolve here.
BUILTIN_SCHEMES: dict[str, Realization] = {
    "leopardi": weighted_realization(leopardi_weights, "leopardi"),
    "frobenius": Realization(_frobenius_q, "frobenius", weights=frobenius_weights),
    "operator": Realization(_operator_q, "operator"),
    "trace": Realization(trace_realization, "trace", square_only=True),
}


class QuotientScheme:
    """Constructors of the scheme objects; the class itself has no instances.

    ``QuotientScheme.frobenius()`` is ``BUILTIN_SCHEMES["frobenius"]``, and
    likewise for the other built-ins; ``weighted`` is :func:`weighted_realization`,
    and ``linear(family, name)`` makes a :class:`LinearScheme` labelled ``name``,
    by default the family's ``__name__``.
    """

    leopardi = staticmethod(lambda: BUILTIN_SCHEMES["leopardi"])
    frobenius = staticmethod(lambda: BUILTIN_SCHEMES["frobenius"])
    operator = staticmethod(lambda: BUILTIN_SCHEMES["operator"])
    trace = staticmethod(lambda: BUILTIN_SCHEMES["trace"])
    weighted = staticmethod(weighted_realization)

    @staticmethod
    def linear(family: FamilyRule, name: str | None = None) -> LinearScheme:
        return LinearScheme(family, name or getattr(family, "__name__", "custom"))


def resolve_scheme(scheme) -> Realization | LinearScheme:
    """The one object of a scheme: a Realization if it is uniform, a LinearScheme
    if it is linear. Such an object is returned as it is; a string is a built-in
    name or a descriptor a report records: ``frobenius``,
    ``uniform(frobenius)``, ``weighted(leopardi_weights)`` or
    ``weighted(frobenius_weights)``. The result's ``describe()`` is the one
    descriptor of the scheme, whichever form named it."""
    if isinstance(scheme, (Realization, LinearScheme)):
        return scheme
    if isinstance(scheme, str):
        if scheme in BUILTIN_SCHEMES:
            return BUILTIN_SCHEMES[scheme]
        for name, realization in BUILTIN_SCHEMES.items():
            if scheme == f"uniform({name})":
                return realization
            rule = realization.weights
            if rule is not None and scheme == f"weighted({rule.__name__})":
                return weighted_realization(rule)
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    raise ConfigurationError(f"expected a scheme name, a Realization or a linear scheme, "
                             f"got {scheme!r}")


def realization_for(scheme) -> Realization:
    """The realization of a uniform scheme, given in any form :func:`resolve_scheme`
    accepts; linear schemes have none."""
    realization = resolve_scheme(scheme)
    if not isinstance(realization, Realization):
        raise ConfigurationError(f"scheme {realization.describe()!r} is not uniform: "
                                 "it has no single-matrix realization")
    return realization


# -- evaluation ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Divisor:
    """A divisor A realized under a uniform scheme; made by :func:`realize`.

    ``q`` is the checked Q(A) and ``unit`` its pairing pfp_scalar(Q(A), A),
    within REALIZATION_TOLERANCE of 1. ``svd`` is the decomposition of A
    that the operator scheme's Q(A) was built from, and None for every
    other rule; Q(A) is one outer product of the first columns of its
    compact U and V. Divisors compare by (a, q, unit); A fixes the
    decomposition, so ``svd`` takes no part.
    """

    a: Matrix
    q: Matrix
    unit: complex
    svd: SvdResult | None = dataclasses.field(default=None, compare=False)

    def quotient(self, m: Matrix, shape: FactorShape) -> Matrix:
        """A quot M = pfp(Q(A), M), once A and M fit the factor shape.
        UnsupportedInputError, named as by :func:`left_quotient`, where it
        overflows binary64."""
        _check_shapes(self.a, m, shape)
        try:
            return pfp(self.q, m)
        except UnsupportedInputError:  # pfp raises it only for an overflow
            raise UnsupportedInputError(
                _overflow_message("left_quotient", m, self.a, shape)) from None

    def _kernel(self, rows: int, cols: int) -> _Kernel:
        """Q(A) paired against axes 0 and 2 of a dividend's block view, and its growth,
        at any quotient shape (see :func:`_divide`); on the left view, ``quotient``."""
        q = self.q._a
        return partial(_pair_blocks, q), partial(_pairing_growth, q)


@dataclasses.dataclass(frozen=True)
class LinearDivisor:
    """A nonzero divisor A under a linear scheme; made by :func:`realize`.

    ``family(a, s, t)`` maps 1-based component indices (u, v, u', v') to
    m x n matrices; missing components count as zero. It depends on the
    block size, so each quotient evaluates it once and checks that component
    (u,v,u',v') pairs to delta_uu' * delta_vv' against A.
    """

    family: FamilyRule
    a: Matrix
    svd = None

    def quotient(self, m: Matrix, shape: FactorShape) -> Matrix:
        """Entry (u',v') is the sum over u, v of pfp(Q[u,v,u',v'], M)[u,v]."""
        _check_shapes(self.a, m, shape)
        return _divide("left_quotient", self, m, shape, "left")

    def _kernel(self, s: int, t: int) -> _Kernel:
        """The family read and checked once, for an s x t quotient, and the map and
        growth (see :func:`_divide`) of its components; an entry adds one pairing per
        component. Component (u,v,u',v') adds sum_{j,k} Q[u,v,u',v'][j,k] *
        blocks[j,u,k,v] to entry (u',v'), read from the pairing of the block-row view u
        alone: that row sums each entry in the order the full pairing does, and one
        entry alone would not."""
        a = self.a
        with np.errstate(over="ignore", invalid="ignore"):  # a caller's rule, as in realize
            components = dict(self.family(a, s, t))
        for (u, v, u2, v2), comp in components.items():
            if not (1 <= u <= s and 1 <= u2 <= s and 1 <= v <= t and 1 <= v2 <= t):
                raise InvalidFamilyError(f"component index ({u},{v},{u2},{v2}) outside "
                                         f"the {s}x{t} block size")
            if comp.shape != a.shape:
                raise InvalidFamilyError(f"component ({u},{v},{u2},{v2}) is "
                                         f"{comp.rows}x{comp.cols}, expected {a.rows}x{a.cols}")
        # a missing component pairs to 0, so only the diagonal ones must be present
        diagonal = {(u, v, u, v) for u, v in product(range(1, s + 1), range(1, t + 1))}
        for u, v, u2, v2 in sorted(components.keys() | diagonal):
            expected = 1.0 if (u == u2 and v == v2) else 0.0
            comp = components.get((u, v, u2, v2))
            paired = 0.0 if comp is None else pfp_scalar(comp, a)
            if abs(paired - expected) > FAMILY_TOLERANCE:
                raise InvalidFamilyError(
                    f"component ({u},{v},{u2},{v2}) pairs to {paired} against the "
                    f"divisor, expected {expected}")

        def apply(blocks: np.ndarray) -> np.ndarray:
            out = np.zeros((s, t), dtype=np.complex128)
            for (u, v, u2, v2), comp in components.items():
                out[u2 - 1, v2 - 1] += _pair_blocks(comp._a, blocks[:, u - 1:u])[0, v - 1]
            return out

        return apply, lambda: (max(_pairing_growth(comp._a) for comp in components.values())
                               + (len(components) - 1).bit_length())


def _divide(op: str, divisor: Divisor | LinearDivisor, m: Matrix, shape: FactorShape,
            side: str) -> Matrix:
    """The divisor on ``side`` applied to M's block view; UnsupportedInputError naming
    ``op`` where the quotient overflows binary64, and only there. Either kind of
    divisor gives, at the quotient's shape (axes 1 and 3 of the view), its kernel, a
    map of the view, and the kernel's growth; where an intermediate overflows, the
    kernel is applied again to 2^-e M (see :func:`_adopt_rescaled`) and the result
    scaled back."""
    rows, cols = (shape.s, shape.t) if side == "left" else (shape.m, shape.n)
    kernel, growth = divisor._kernel(rows, cols)
    return _adopt_rescaled(lambda x: kernel(_block_view(x, shape.m, shape.n, side)),
                           (m,), growth, op, m, divisor.a, shape)


def realize(scheme, a: Matrix) -> Divisor | LinearDivisor:
    """A divisor under a scheme in any form :func:`resolve_scheme` accepts: a
    :class:`Divisor` for a uniform scheme, a :class:`LinearDivisor` for a linear one.

    Raises ZeroDivisorError for an exactly zero A. Under a uniform scheme it
    also raises what the realization raises, UnsupportedInputError when Q(A)
    or its pairing against A overflows binary64, or naming a caller's rule
    that builds a non-finite matrix, and InvalidRealizationError when Q(A)
    lacks A's shape or does not pair to 1 against A. The rules made in this
    module guard their own arithmetic, and a weighted rule its caller's weight
    rule; any other rule runs under ``np.errstate`` here.
    """
    realization = resolve_scheme(scheme)
    _check_nonzero(a)
    if isinstance(realization, LinearScheme):
        return LinearDivisor(realization.family, a)
    decomposition = svd(a) if realization.q_of is _operator_q else None
    try:
        if decomposition is not None:
            q = _operator_q(a, decomposition)
        elif getattr(realization.q_of, "__module__", None) == __name__:
            q = realization.q_of(a)  # the rules made here guard their own arithmetic
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                q = realization.q_of(a)
    except NonFiniteEntryError:  # the package adopts no non-finite Q(A): a caller's rule built it
        raise UnsupportedInputError(
            f"realization {realization.label!r} built a non-finite matrix for Q(A) of "
            f"the {a.rows}x{a.cols} divisor") from None
    if not isinstance(q, Matrix) or q.shape != a.shape:
        raise InvalidRealizationError("realization must return a matrix of the divisor's shape")
    unit = pfp_scalar(q, a)
    if abs(unit - 1.0) > REALIZATION_TOLERANCE:
        raise InvalidRealizationError(
            f"realization pairs to {unit} against its argument, expected 1")
    return Divisor(a, q, unit, decomposition)


def left_quotient(scheme, a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """Left quotient of M by A under a scheme, given by name or as a scheme object:
    the shapes are checked, A is realized and the divisor applied to M's block view.
    UnsupportedInputError where the quotient overflows binary64."""
    _check_shapes(a, m, shape)
    return _divide("left_quotient", realize(scheme, a), m, shape, "left")


def remainder(scheme, a: Matrix, m: Matrix, shape: FactorShape) -> Matrix:
    """M - kron(A, left_quotient(...)): what the divisor fails to explain.

    One pass of the block product in :mod:`kronquot.matrix`'s layout, with M read in
    place as its minuend: each chunk of block rows of A kron C, C the left quotient,
    is subtracted from M while it is still in cache, r[j,u,k,v] = M4[j,u,k,v] -
    A[j,k] C[u,v] with M4 the block view of M, so no Kronecker product is built on its
    own and no second dividend-sized array is made or read. Raises
    UnsupportedInputError, naming ``remainder``, where the quotient or the remainder
    overflows binary64; A kron C may overflow where the remainder fits, and then it
    is computed again from 2^-e M and 2^-e C (see :func:`_adopt_rescaled`) and scaled
    back. Where ||M||_F + ||A||_F ||C||_F bounds the remainder's parts below
    ``_PROOF_MAX``, it is adopted without a finite check.
    """
    _check_shapes(a, m, shape)
    c = _divide("remainder", realize(scheme, a), m, shape, "left")

    def kernel(dividend: Matrix, quotient: Matrix) -> np.ndarray:
        return _block_product(a, quotient, dividend._a)

    # |M - A[j,k] C[u,v]| < 2^(k + max(e_A + 1, 0) + 1), plus a bit for rounding; and
    # every part is at most |M[j,u,k,v]| + |A[j,k]| |C[u,v]| <= ||M|| + ||A|| ||C||
    return _adopt_rescaled(kernel, (m, c), lambda: max(_exponent(a._a) + 1, 0) + 2,
                           "remainder", m, a, shape,
                           bound=_norm_bound(m) + _norm_bound(a) * _norm_bound(c))


def _remainder_verdict(r: Matrix, m: Matrix) -> tuple[bool, float]:
    """Whether a remainder r of M vanishes, ||r||_F <= REMAINDER_TOLERANCE * ||M||_F,
    and ||r||_F, each norm taken once. Where ||M||_F overflows binary64, the verdict
    takes both norms on r and M scaled by one exact power of two, so two infinite
    norms never compare equal."""
    r_norm, m_norm = r.frobenius_norm(), m.frobenius_norm()
    if m_norm < math.inf:
        return r_norm <= REMAINDER_TOLERANCE * m_norm, r_norm
    e = max(_exponent(r._a), _exponent(m._a))
    scaled_r, scaled_m = _norm(_ldexp(r._a, -e)), _norm(_ldexp(m._a, -e))
    return scaled_r <= REMAINDER_TOLERANCE * scaled_m, r_norm


def is_divisor(scheme, a: Matrix, m: Matrix, shape: FactorShape) -> bool:
    """Whether the remainder vanishes relative to M, ||R||_F <= REMAINDER_TOLERANCE *
    ||M||_F: see :func:`_remainder_verdict`."""
    return _remainder_verdict(remainder(scheme, a, m, shape), m)[0]


def right_quotient(scheme, m: Matrix, b: Matrix, shape: FactorShape) -> Matrix:
    """Right quotient recovering the left factor: (A kron B) rquot B = A.

    B is realized as a left divisor is, and its quotient pairs against the
    entries within each s x t block of M, read in place:
    (M rquot B)[j, k] = sum_{u,v} Q(B)[u, v] * M[j*s+u, k*t+v] for a uniform
    scheme. This is the left quotient by B of M's perfect shuffle, which
    turns kron(A, B) into kron(B, A); the shuffled copy is never made.
    UnsupportedInputError where the quotient overflows binary64.
    """
    _check_shapes(b, m, shape, "right")
    return _divide("right_quotient", realize(scheme, b), m, shape, "right")
