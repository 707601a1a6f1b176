"""Seeded randomized checks of the quotient algebra, with replayable reports.

Each law is one entry of the table ``_LAWS``: a ``draw`` of a trial's inputs,
an ``evaluate`` of their residuals, and what its report says about them. One
runner builds every check's report from its entry. It draws trial t from the
stream of ``default_rng(SeedSequence(entropy=(seed, t)))`` and keeps the worst
residual, the first trial on ties. A failing report carries that trial's inputs;
:func:`replay_counterexample` feeds them to the same ``evaluate``. Identical
arguments produce bit-identical reports, and trials never share generator state,
so they could run in any order. The runner computes the trials' PCG64 seed words
a block at a time, numpy's SeedSequence hash run on arrays, and builds each
trial's Generator from its own words.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from functools import cache, partial
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import matfile
from .errors import ConfigurationError
from .matrix import FactorShape, Matrix, _exponent, _ldexp, kron, relative_residual
from .pfp import pfp_scalar
from .quotients import (
    BUILTIN_SCHEMES,
    Divisor,
    LinearDivisor,
    Realization,
    WeightRule,
    left_quotient,
    realization_for,
    realize,
    resolve_scheme,
    trace_realization,
    weighted_realization,
)
from .singular import _rank_of, svd

# Verdict threshold: generous headroom over double-precision rounding at
# these tiny sizes, while a law that genuinely fails leaves residuals
# around 1.
TOLERANCE = 1e-8

# Scalar draws for the homogeneity axioms; the complex values expose
# rules that scale with conj(k) or |k| instead of k.
SCALARS = (2 + 0j, -2 + 0j, 0.5 + 0j, -0.5 + 0j, 1j, 1 + 1j)


@dataclasses.dataclass(frozen=True)
class Counterexample:
    """Serialized inputs of the worst trial (first trial on residual ties)."""

    trial: int
    residual: float
    inputs: tuple[tuple[str, str], ...]

    def values(self) -> dict[str, Matrix | complex]:
        return {name: _deserialize_value(text) for name, text in self.inputs}


@dataclasses.dataclass(frozen=True)
class AxiomReport:
    """Machine-readable outcome of one randomized check."""

    axiom: str
    scheme: str
    trials: int
    seed: int
    max_residual: float
    verdict: str
    counterexample: Counterexample | None = None
    details: tuple[tuple[str, object], ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def detail(self, key: str, default=None):
        for name, value in self.details:
            if name == key:
                return value
        return default

    def to_text(self) -> str:
        lines = [
            f"axiom={self.axiom}",
            f"scheme={self.scheme}",
            f"trials={self.trials}",
            f"seed={self.seed}",
            f"max_residual={self.max_residual!r}",
            f"verdict={self.verdict}",
        ]
        lines.extend(f"detail.{key}={_text_value(value)}" for key, value in self.details)
        if self.counterexample is not None:
            lines.append(f"counterexample.trial={self.counterexample.trial}")
            lines.append(f"counterexample.residual={self.counterexample.residual!r}")
            lines.extend(f"counterexample.input.{name}={text}"
                         for name, text in self.counterexample.inputs)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "axiom": self.axiom,
            "scheme": self.scheme,
            "trials": self.trials,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "verdict": self.verdict,
            "details": {key: value for key, value in self.details},
            "counterexample": None,
        }
        if self.counterexample is not None:
            obj["counterexample"] = {
                "trial": self.counterexample.trial,
                "residual": self.counterexample.residual,
                "inputs": {name: text for name, text in self.counterexample.inputs},
            }
        return json.dumps(obj)


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _serialize_value(value) -> str:
    if isinstance(value, Matrix):
        return matfile.to_line(value)
    return matfile.format_scalar(complex(value))


def _deserialize_value(text: str):
    if ";" in text:
        return matfile.from_line(text)
    return matfile.parse_scalar(text)


def _serialize_inputs(inputs: dict) -> tuple[tuple[str, str], ...]:
    return tuple((name, _serialize_value(value)) for name, value in inputs.items())


# -- random draws -------------------------------------------------------

# Trial t draws from default_rng(SeedSequence(entropy=(seed, t))). numpy's SeedSequence
# (mix_entropy and generate_state in numpy/random/bit_generator.pyx) hashes the entropy's
# uint32 words into a pool of four words, and the pool into PCG64's seed words;
# _seed_words runs those steps on a block of trials at once, in uint32 array arithmetic,
# which wraps mod 2**32 as numpy's C does.
_POOL_SIZE = 4
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# the pool word each of the eight uint32 seed words is hashed from
_CYCLE = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
# for each pool word, the other three, which it is mixed into
_OTHERS = [np.array([i for i in range(_POOL_SIZE) if i != src]) for src in range(_POOL_SIZE)]
# trials seeded per pass: a power of two, so no block straddles 2**32 and all its
# trials have as many 32-bit words
_SEED_BLOCK = 1024
# the row of _hash_constants where the constants of the mixing into the pool begin,
# after the nine that hash the pool into the seed words
_MIXING = 2 * _POOL_SIZE + 1


@cache
def _hash_constants(words: int) -> np.ndarray:
    """The column of hash constants that seeding from ``words`` entropy words reads.
    Each of SeedSequence's two hash constants starts at a fixed value and is multiplied
    by a fixed one mod 2**32 at every hash; hash i of a chain reads values i and i + 1."""
    column = []
    for value, mult, hashes in ((0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE),
                                (0x43B0D7E5, 0x931E8875, _POOL_SIZE * max(words, _POOL_SIZE))):
        column.append(value)
        for _ in range(hashes):
            value = value * mult & 0xFFFFFFFF
            column.append(value)
    column = np.array(column, dtype=np.uint32)[:, None]
    column.setflags(write=False)  # every caller shares it
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix, ``count`` rows: row i hashes row i of ``values`` (or its
    one row) with hash ``first + i`` of the chain in ``consts``."""
    out = values ^ consts[first:first + count]
    out *= consts[first + 1:first + count + 1]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of each x with its hashed word; ``hashed`` is overwritten."""
    out = x * _MIX_L
    hashed *= _MIX_R
    out -= hashed
    out ^= out >> _XSHIFT
    return out


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from ``value``; [0] for 0."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row t - start is SeedSequence(entropy=(seed, t)).generate_state(4, np.uint64), for
    start <= t < stop within one block of ``_SEED_BLOCK`` trials."""
    seed_words = _uint32_words(seed)
    entropy = seed_words + _uint32_words(start)
    count = stop - start
    # one column of words per trial, so that every step is elementwise: the trials share
    # every entropy word but the low word of t, and each step broadcasts the constants
    consts = _hash_constants(len(entropy))
    words = np.repeat(np.array(entropy + [0] * (_POOL_SIZE - len(entropy)),
                               dtype=np.uint32)[:, None], count, axis=1)
    low = start & 0xFFFFFFFF
    words[len(seed_words)] = np.arange(low, low + count, dtype=np.uint32)
    pool = _hashmix(words[:_POOL_SIZE], consts, _MIXING, _POOL_SIZE)
    call = _MIXING + _POOL_SIZE
    for src, dst in enumerate(_OTHERS):  # every pool word into every other one
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, call, _POOL_SIZE - 1))
        call += _POOL_SIZE - 1
    for word in words[_POOL_SIZE:]:  # then each further entropy word into every one
        pool = _mix(pool, _hashmix(word, consts, call, _POOL_SIZE))
        call += _POOL_SIZE
    state = _hashmix(pool[_CYCLE], consts, 0, 2 * _POOL_SIZE)
    # uint32 words 2 i and 2 i + 1 make uint64 word i, little-endian
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@cache
def _preset_seed() -> type:
    """A seed sequence that gives PCG64 the seed words it was made with. Defined on
    first use, so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks once, for its four uint64 words

    return PresetSeed


def _trial_rngs(seed: int, trials: int):
    """The generator of each trial t < ``trials`` in turn:
    default_rng(SeedSequence(entropy=(seed, t))), seeded a block at a time."""
    preset, generator, pcg64 = _preset_seed(), np.random.Generator, np.random.PCG64
    for start in range(0, trials, _SEED_BLOCK):
        for words in _seed_words(seed, start, min(start + _SEED_BLOCK, trials)):
            yield generator(pcg64(preset(words)))


def _dim(rng: np.random.Generator, max_dim: int) -> int:
    return int(rng.integers(1, max_dim + 1))


def _draw_scalar(rng: np.random.Generator) -> complex:
    """One of ``SCALARS``, uniformly: the draw ``rng.choice(SCALARS)`` makes."""
    return SCALARS[int(rng.integers(0, len(SCALARS)))]


def _random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Real, then imaginary parts uniform on [-1, 1), drawn in one call: the bits of
    ``x + 1j * y`` for x and y drawn in turn. 1j * y is (+-0.0, y), and adding it
    changes no bit of x, as uniform(-1, 1) never draws -0.0."""
    parts = rng.uniform(-1.0, 1.0, (2, rows, cols))
    return parts.transpose(1, 2, 0).copy().view(np.complex128).reshape(rows, cols)


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    return Matrix._adopt(_random_complex(rng, rows, cols))


def _random_nonzero(rng: np.random.Generator, rows: int, cols: int, *,
                    sparsify: bool = False, need_trace: bool = False) -> Matrix:
    while True:
        arr = _random_complex(rng, rows, cols)
        if sparsify:
            arr = arr * (rng.random((rows, cols)) < 0.5)
        draw = Matrix._adopt(arr)
        if math.sqrt(draw._sum_squares()) < 1e-6:
            continue
        if need_trace and abs(complex(np.trace(arr))) < 1e-6:
            continue
        return draw


def _draw_block(rng, trial, *, square, sparse, max_dim, restricted,
                keys: tuple[str, ...], trace_rule: bool = False, **_) -> dict:
    """The one-divisor draws: A (m x n), then in the order of ``keys`` a scalar for
    "k" and a dividend (ms x nt) for each other key; the trace rule needs m = n, s = t."""
    m = _dim(rng, max_dim)
    n = m if square or trace_rule else _dim(rng, max_dim)
    s = _dim(rng, max_dim)
    t = s if trace_rule else _dim(rng, max_dim)
    a = _random_nonzero(rng, m, n, sparsify=sparse and trial % 3 == 0, need_trace=square)
    inputs = {"A": a}
    for key in keys:
        if key == "k":
            inputs[key] = _draw_scalar(rng)
        elif restricted:
            inputs[key] = kron(a, _random_matrix(rng, s, t))
        else:
            inputs[key] = _random_matrix(rng, m * s, n * t)
    return inputs


def _draw_q3(rng, trial, *, square, sparse, max_dim, restricted, **_) -> dict:
    m = _dim(rng, max_dim)
    n = m if square else _dim(rng, max_dim)
    s2 = _dim(rng, max_dim)
    t2 = s2 if square else _dim(rng, max_dim)
    p = _dim(rng, max_dim)
    q = _dim(rng, max_dim)
    sparsify = sparse and trial % 3 == 0
    a = _random_nonzero(rng, m, n, sparsify=sparsify, need_trace=square)
    b = _random_nonzero(rng, s2, t2, sparsify=sparsify, need_trace=square)
    if restricted:
        mprime = kron(kron(b, a), _random_matrix(rng, p, q))
    else:
        mprime = _random_matrix(rng, s2 * m * p, t2 * n * q)
    return {"A": a, "B": b, "M": mprime}


def _draw_weight_pair(rng, trial, *, sparse, max_dim, **_) -> dict:
    sparsify = sparse and trial % 3 == 0
    a = _random_nonzero(rng, _dim(rng, max_dim), _dim(rng, max_dim), sparsify=sparsify)
    b = _random_nonzero(rng, _dim(rng, max_dim), _dim(rng, max_dim), sparsify=sparsify)
    return {"A": a, "B": b}


def _draw_realization_pair(rng, trial, *, square, sparse, max_dim, **_) -> dict:
    m = _dim(rng, max_dim)
    n = m if square else _dim(rng, max_dim)
    s = _dim(rng, max_dim)
    t = s if square else _dim(rng, max_dim)
    sparsify = sparse and trial % 3 == 0
    a = _random_nonzero(rng, m, n, sparsify=sparsify, need_trace=square)
    b = _random_nonzero(rng, s, t, sparsify=sparsify, need_trace=square)
    return {"A": a, "B": b, "k": _draw_scalar(rng)}


def _draw_basis_dividend(rng, trial, *, shared, max_dim, **_) -> dict:
    """A dividend for the basis in ``shared``: (m s) x (n t) for m x n basis matrices."""
    m, n = shared["basis.1"].shape
    s = _dim(rng, max_dim)
    t = _dim(rng, max_dim)
    return {"M": _random_matrix(rng, m * s, n * t)}


# -- evaluation ---------------------------------------------------------

def _shape_for(a: Matrix, m: Matrix) -> FactorShape:
    if m.rows % a.rows or m.cols % a.cols:
        raise ConfigurationError(f"dividend {m.rows}x{m.cols} is not block-compatible "
                                 f"with divisor {a.rows}x{a.cols}")
    return FactorShape(a.rows, a.cols, m.rows // a.rows, m.cols // a.cols)


def _divisors(scheme, inputs: dict) -> dict[str, Divisor | LinearDivisor]:
    """A trial's divisors, the inputs named A and B, each realized once under
    ``scheme``; the law evaluators divide by them."""
    return {key: realize(scheme, inputs[key]) for key in ("A", "B") if key in inputs}


# Each law divides by its realized divisors, and once each by the divisors it
# derives from them (A^T, kA, B kron A) through left_quotient.

def _eval_q1(scheme, inputs: dict, divisors: dict) -> tuple[float]:
    a, m = inputs["A"], inputs["M"]
    shape = _shape_for(a, m)
    lhs = divisors["A"].quotient(m, shape).transpose()
    rhs = left_quotient(scheme, a.transpose(), m.transpose(),
                        FactorShape(shape.n, shape.m, shape.t, shape.s))
    return (relative_residual(lhs, rhs),)


def _eval_q2a(scheme, inputs: dict, divisors: dict) -> tuple[float, float]:
    a, m1, m2, k = divisors["A"], inputs["M1"], inputs["M2"], inputs["k"]
    shape = _shape_for(a.a, m1)
    q1 = a.quotient(m1, shape)
    q2 = a.quotient(m2, shape)
    additive = relative_residual(a.quotient(m1 + m2, shape), q1 + q2)
    homogeneous = relative_residual(a.quotient(k * m1, shape), k * q1)
    return additive, homogeneous


def _eval_q2b(scheme, inputs: dict, divisors: dict) -> tuple[float]:
    a, m, k = inputs["A"], inputs["M"], inputs["k"]
    shape = _shape_for(a, m)
    lhs = left_quotient(scheme, k * a, m, shape)
    rhs = divisors["A"].quotient(m, shape) / k
    return (relative_residual(lhs, rhs),)


def _eval_q3(scheme, inputs: dict, divisors: dict) -> tuple[float]:
    a, b, m = inputs["A"], inputs["B"], inputs["M"]
    p = m.rows // (b.rows * a.rows)
    q = m.cols // (b.cols * a.cols)
    inner = divisors["B"].quotient(m, FactorShape(b.rows, b.cols, a.rows * p, a.cols * q))
    lhs = divisors["A"].quotient(inner, FactorShape(a.rows, a.cols, p, q))
    rhs = left_quotient(scheme, kron(b, a), m,
                        FactorShape(b.rows * a.rows, b.cols * a.cols, p, q))
    return (relative_residual(lhs, rhs),)


def _eval_q5r(scheme, inputs: dict, divisors: dict) -> tuple[float]:
    a, m = inputs["A"], inputs["M"]
    quotient = divisors["A"].quotient(m, _shape_for(a, m))
    x, y = m.trace(), a.trace() * quotient.trace()
    return (abs(x - y) / max(1.0, abs(x), abs(y)),)


def _weight_condition_residuals(rule, inputs: dict, divisors: dict) -> tuple[float, float]:
    a, b = inputs["A"], inputs["B"]
    w_t, w_a = rule(a.transpose()), rule(a)
    transpose_res = relative_residual(w_t, w_a.transpose())
    kron_res = relative_residual(rule(kron(a, b)), kron(w_a, rule(b)))
    return transpose_res, kron_res


def _realization_condition_residuals(realization: Realization, inputs: dict,
                                     divisors: dict) -> tuple[float, float, float]:
    a, b, k = inputs["A"], inputs["B"], inputs["k"]
    q = realization.q_of
    q_t, q_a = q(a.transpose()), q(a)
    transpose_res = relative_residual(q_t, q_a.transpose())
    scale_res = relative_residual(q(k * a), q_a / k)
    kron_res = relative_residual(q(kron(b, a)), kron(q(b), q_a))
    return transpose_res, scale_res, kron_res


def _near_degenerate_leading(sigma: tuple[float, ...]) -> bool:
    """Whether sigma_1 and sigma_2 (when there are two) tie to 1e-8 relative."""
    return len(sigma) >= 2 and sigma[0] > 0.0 and (sigma[0] - sigma[1]) <= 1e-8 * sigma[0]


# -- projection / basis expansion ----------------------------------------

def _numerical_rank(mat: Matrix) -> int:
    return _rank_of(svd(mat).sigma, mat.rows, mat.cols)


def _basis_inputs(basis: Sequence[Matrix]) -> dict[str, Matrix]:
    """A basis of the m x n matrices as the inputs basis.1, basis.2, ...;
    ConfigurationError for anything else."""
    if not basis:
        raise ConfigurationError("empty basis")
    for position, mat in enumerate(basis, 1):
        if not isinstance(mat, Matrix):
            raise ConfigurationError(f"basis element {position} is not a Matrix: {mat!r}")
    m, n = basis[0].rows, basis[0].cols
    if any(mat.shape != (m, n) for mat in basis):
        raise ConfigurationError("basis matrices must share one shape")
    if len(basis) != m * n:
        raise ConfigurationError(f"a basis of the {m}x{n} matrices needs {m * n} "
                                 f"elements, got {len(basis)}")
    # each element scaled by its exact power of two, so no one element's scale
    # decides the rank
    stack = Matrix._adopt(np.array([_ldexp(mat._a.ravel(), -_exponent(mat._a))
                                    for mat in basis]))
    if _numerical_rank(stack) != m * n:
        raise ConfigurationError("basis does not span the matrix space")
    return {f"basis.{position}": mat for position, mat in enumerate(basis, 1)}


def _default_basis(scheme) -> list[Matrix]:
    """The CLI's basis of the 2 x 2 matrices: the unit basis, except under a
    ``square_only`` scheme, where E12 and E21 (trace 0) give way to E11 + E12
    and E11 + E21."""
    if realization_for(scheme).square_only:
        return [Matrix.unit(2, 2, 1, 1), Matrix.unit(2, 2, 2, 2),
                Matrix.from_rows([[1, 1], [0, 0]]), Matrix.from_rows([[1, 0], [1, 0]])]
    return [Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)]


def _realized_basis(scheme, shared: dict) -> list[Divisor]:
    """The inputs basis.1, basis.2, ... realized once each under a uniform scheme."""
    realization = realization_for(scheme)
    return [realize(realization, value) for key, value in shared.items()
            if key.startswith("basis.")]


def _biorthonormality(basis: Sequence[Divisor]):
    """The worst |pfp_scalar(Q(A_j), A_k) - delta_jk| over the realized basis, and
    its details with the 1-based (j, k) where it occurs."""
    worst = -1.0
    worst_pair = (1, 1)
    for j, k in product(range(len(basis)), repeat=2):
        expected = 1.0 if j == k else 0.0
        residual = abs(pfp_scalar(basis[j].q, basis[k].a) - expected)
        if residual > worst:
            worst, worst_pair = residual, (j + 1, k + 1)
    return (worst,), (("biorthonormal_residual", worst),
                      ("biorthonormal_verdict", _verdict(worst)),
                      ("worst_pair_j", worst_pair[0]), ("worst_pair_k", worst_pair[1]))


def _reconstruction(basis: Sequence[Divisor], inputs: dict, divisors: dict) -> tuple[float]:
    """Relative distance between M and sum_j kron(A_j, A_j quot M) over the realized basis."""
    mat = inputs["M"]
    m, n = basis[0].a.rows, basis[0].a.cols
    shape = FactorShape(m, n, mat.rows // m, mat.cols // n)
    total = Matrix.zero(mat.rows, mat.cols)
    for elem in basis:
        total = total + kron(elem.a, elem.quotient(mat, shape))
    return ((mat - total).frobenius_norm() / max(mat.frobenius_norm(), 1e-300),)


# -- the trial loop and the runner ---------------------------------------

def _fold_max(maxima: tuple[float, ...] | None, components: tuple[float, ...]):
    return components if maxima is None else tuple(map(max, maxima, components))


def _run_trials(draw, evaluate, trials: int, seed: int):
    """Draw and evaluate ``trials`` inputs; the worst residual (first trial on ties)
    with its trial and inputs, and each component's maxima over all trials and
    over those with a real and a complex scalar k (None where no trial drew one)."""
    worst = -1.0
    worst_trial = -1
    worst_inputs: dict = {}
    maxima = None
    by_real_k: dict[bool, tuple[float, ...]] = {}
    for trial, rng in enumerate(_trial_rngs(seed, trials)):
        inputs = draw(rng, trial)
        components = evaluate(inputs)
        maxima = _fold_max(maxima, components)
        if "k" in inputs:
            real = inputs["k"].imag == 0.0
            by_real_k[real] = _fold_max(by_real_k.get(real), components)
        residual = max(components)
        if residual > worst:
            worst, worst_trial, worst_inputs = residual, trial, inputs
    return worst, worst_trial, worst_inputs, maxima, by_real_k.get(True), by_real_k.get(False)


def _as_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _validate_common(trials, seed, max_dim) -> tuple[int, int, int]:
    """trials, seed and max_dim as ints, once each is an integer in its range."""
    trials = _as_int(trials, "trials")
    seed = _as_int(seed, "seed")
    max_dim = _as_int(max_dim, "max_dim")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    if not 1 <= max_dim <= 6:
        raise ConfigurationError(f"max_dim must lie in 1..6, got {max_dim}")
    return trials, seed, max_dim


def _checked_descriptor(evaluator) -> str:
    """The descriptor a check records for a scheme object; ConfigurationError when
    that string resolves to another rule, which a replay would then evaluate."""
    descriptor = evaluator.describe()
    try:
        named = resolve_scheme(descriptor)
    except ConfigurationError:
        return descriptor  # it names no built-in, so a replay needs ``scheme=``
    if named.q_of is not evaluator.q_of and (evaluator.weights is None
                                              or named.weights is not evaluator.weights):
        raise ConfigurationError(f"scheme label {evaluator.label!r} would be recorded as "
                                 f"{descriptor!r}, a different rule; choose another label")
    return descriptor


def _verdict(residual: float) -> str:
    return "holds" if residual <= TOLERANCE else "fails"


def _report(axiom: str, scheme: str, trials: int, seed: int, worst: float,
            worst_trial: int, worst_inputs: dict, details, verdict: str | None = None
            ) -> AxiomReport:
    """A report whose worst residual came from ``worst_inputs`` at ``worst_trial``.

    The verdict defaults to comparing the worst residual with TOLERANCE;
    a failing report carries the serialized worst inputs.
    """
    if verdict is None:
        verdict = _verdict(worst)
    counterexample = None
    if verdict == "fails":
        counterexample = Counterexample(trial=worst_trial, residual=worst,
                                        inputs=_serialize_inputs(worst_inputs))
    return AxiomReport(axiom=axiom, scheme=scheme, trials=trials, seed=seed,
                       max_residual=worst, verdict=verdict,
                       counterexample=counterexample, details=tuple(details))


def _run(axiom: str, scheme, trials, seed, max_dim, *, restricted: bool = False,
         basis: Sequence[Matrix] | None = None) -> AxiomReport:
    """The report of law ``axiom`` on ``scheme``, built as its ``_LAWS`` entry
    declares; every check is a call of this. ``basis`` is the projection law's
    shared input, and ``restricted`` draws Kronecker-product dividends."""
    law = _LAWS[axiom]
    trials, seed, max_dim = _validate_common(trials, seed, max_dim)
    shared = {} if basis is None else _basis_inputs(basis)
    evaluator = resolve_scheme(scheme)
    descriptor = _checked_descriptor(evaluator)
    subject = law.subject(evaluator, shared)
    sparse = getattr(evaluator, "support_sensitive", False) and not law.dense
    draw = partial(law.draw, square=getattr(evaluator, "square_only", False), sparse=sparse,
                   max_dim=max_dim, restricted=restricted, shared=shared)
    # one flag per divisor that carries the SVD its Q was built from
    degenerate: list[bool] = []

    def evaluate(inputs):
        divisors = law.divisors(subject, inputs)
        components = law.evaluate(subject, inputs, divisors)
        degenerate.extend(_near_degenerate_leading(divisor.svd.sigma)
                          for divisor in divisors.values() if divisor.svd is not None)
        return components

    worst, worst_trial, worst_inputs, maxima, real_k, complex_k = _run_trials(
        draw, evaluate, trials, seed)
    fixed, fixed_details = law.fixed(subject)
    named = list(zip(law.components, maxima))
    details: list[tuple[str, object]] = [("restricted", True)] if restricted else []
    details += fixed_details
    details += [(f"{name}_residual", value) for name, value in named]
    if law.by_k is not None:
        index, key = law.by_k
        details += [(f"{key}_{kind}_k", by_k[index])
                    for kind, by_k in (("real", real_k), ("complex", complex_k))
                    if by_k is not None]
    if law.verdicts:
        details += [(f"{name}_verdict", _verdict(value)) for name, value in named]
    # the cross-runs draw divisors as this law's trials do
    crosses = [_run(cross, dataclasses.replace(evaluator, support_sensitive=sparse), trials,
                    seed, min(max_dim, _LAWS[cross].cross_max_dim)) for cross in law.cross]
    details += [(f"{cross.lower()}_verdict", report.verdict)
                for cross, report in zip(law.cross, crosses)]
    details += [(f"{name.partition('_')[2]}_iff_{cross.lower()}",
                 (value <= TOLERANCE) == report.holds)
                for (name, value), cross, report in zip(named, law.cross, crosses)]
    if fixed:
        details.append(("iff_consistent",
                        (max(fixed) <= TOLERANCE) == (max(maxima) <= TOLERANCE)))
    if degenerate:
        details.append(("degenerate_leading_pairs", sum(degenerate)))
    return _report(axiom, descriptor, trials, seed, max((*fixed, worst)), worst_trial,
                   {**shared, **worst_inputs}, details)


# -- the public checks ----------------------------------------------------

def check_axiom(axiom: str, scheme, trials: int, seed: int, max_dim: int = 4, *,
                restricted: bool = False) -> AxiomReport:
    """Randomized check of one quotient axiom for one scheme.

    ``scheme`` is given in any form :func:`resolve_scheme` accepts: a
    built-in name or report descriptor, a Realization checked through its
    induced uniform quotient, or a linear scheme. The report records the
    scheme's one descriptor, ``resolve_scheme(scheme).describe()``. Divisors
    are drawn square with nonzero trace for a ``square_only``
    realization, and partly zero in a third of the trials for a
    ``support_sensitive`` one. ``restricted=True`` draws the dividend
    as an exact Kronecker product of the matching form, the regime
    where every quotient must comply. Q2a and Q2b draw k from ``SCALARS``;
    a Q2b report also records its maxima over real and over complex k,
    ``max_residual_real_k`` and ``max_residual_complex_k``.
    """
    if axiom not in _SCHEME_LAWS:
        raise ConfigurationError(f"unknown axiom {axiom!r}; expected one of {_SCHEME_LAWS}")
    return _run(axiom, scheme, trials, seed, max_dim, restricted=restricted)


def weight_rule_for(scheme) -> WeightRule:
    """The weight rule W of a weighted scheme, given in any form
    :func:`resolve_scheme` accepts; ConfigurationError names any other scheme."""
    realization = realization_for(scheme)
    if realization.weights is None:
        weighted = " or ".join(name for name, r in BUILTIN_SCHEMES.items() if r.weights)
        raise ConfigurationError(f"weight conditions need a weighted scheme ({weighted}), "
                                 f"not {realization.describe()!r}")
    return realization.weights


def check_weight_conditions(weight_rule, trials: int, seed: int,
                            max_dim: int = 4) -> AxiomReport:
    """Check the two weight-rule identities that characterize Q1 and Q3.

    A weighted quotient transposes compatibly iff W(A^T) = W(A)^T, and
    composes over Kronecker products iff W(A kron B) = W(A) kron W(B).
    The report cross-runs check_axiom(Q1/Q3) on the induced weighted
    scheme, ``weighted_realization(weight_rule)``, with the same seed
    (Q3 at ``min(max_dim, 3)``) and records whether the verdicts agree;
    its descriptor is the report's scheme.
    """
    return _run("Wcond", weighted_realization(weight_rule), trials, seed, max_dim)


def check_realization_conditions(realization, trials: int, seed: int,
                                 max_dim: int = 4) -> AxiomReport:
    """Check the three Q(.) identities characterizing Q1, Q2b and Q3 for a uniform
    scheme, given in any form :func:`realization_for` accepts.

    Each identity is evaluated directly on random draws, then cross-run
    through check_axiom on the induced uniform quotient with the same
    seed (Q3 at ``min(max_dim, 3)``); a one-sided disagreement would flag
    a bug in the suite itself and is recorded under the ``*_iff_*`` detail
    keys. Divisors are dense in the draws and the cross-runs alike, and
    square with nonzero trace when the realization is ``square_only``.
    The scale identity draws k from ``SCALARS`` and also records its maxima
    over real and over complex k, ``q_scale_residual_real_k`` and
    ``q_scale_residual_complex_k``.
    """
    return _run("Rcond", realization, trials, seed, max_dim)


def check_projection(basis: Sequence[Matrix], scheme, trials: int, seed: int,
                     max_dim: int = 4) -> AxiomReport:
    """Check basis biorthonormality against reconstruction by quotients.

    For a uniform scheme realized by Q and a basis A_1..A_mn of the
    m x n matrices, M = sum_j kron(A_j, A_j quot M) holds for every M
    exactly when pfp_scalar(Q(A_j), A_k) = delta_jk. Both sides are
    measured; their verdicts are expected to agree. The basis is realized
    once, and biorthonormality, which depends on no draw, is scored once.
    """
    return _run("PROJ", scheme, trials, seed, max_dim, basis=basis)


# -- the structural impossibility demonstrations -------------------------

def _q4_forced_value(scheme, a: Matrix, c: Matrix, b1: Matrix, b2: Matrix) -> Matrix:
    left = left_quotient(scheme, a, kron(a, b1),
                         FactorShape(a.rows, a.cols, b1.rows, b1.cols))
    right = left_quotient(scheme, c, kron(c, b2),
                          FactorShape(c.rows, c.cols, b2.rows, b2.cols))
    return left @ right


def _q4_residuals(values: dict) -> dict[str, float]:
    """Per built-in scheme, the gap between the two values multiplicativity forces.

    A square-only scheme uses the witness pair A2, C2, whose traces are
    nonzero; the others use A, C.
    """
    out = {}
    for name, realization in BUILTIN_SCHEMES.items():
        a, c = (values["A2"], values["C2"]) if realization.square_only \
            else (values["A"], values["C"])
        out[name] = relative_residual(
            _q4_forced_value(name, a, c, values["B1"], values["B2"]),
            _q4_forced_value(name, a, c, values["B1p"], values["B2p"]))
    return out


def _q5_residuals(values: dict) -> dict[str, float]:
    """Per built-in scheme defined off square domains, the trace-rule residual."""
    return {name: _eval_q5r(realization, values, _divisors(realization, values))[0]
            for name, realization in BUILTIN_SCHEMES.items()
            if not realization.square_only}


def _rank_gap_sides(values: dict) -> tuple[Matrix, Matrix]:
    """Q(J) under the trace rule, and the value composition over col x row forces."""
    q_frob = BUILTIN_SCHEMES["frobenius"].q_of
    return (trace_realization(values["J"]),
            kron(q_frob(values["col"]), q_frob(values["row"])))


def _demo_q4() -> AxiomReport:
    a = Matrix.unit(2, 2, 1, 2)
    c = Matrix.unit(2, 2, 1, 2)
    a2 = Matrix.unit(2, 2, 1, 1)  # trace-scheme witness: tr != 0 but still A2 C2 = 0
    c2 = Matrix.unit(2, 2, 2, 2)
    b1 = Matrix.from_rows([[1, 2], [3, 4]])
    b2 = Matrix.identity(2)
    b1p = 2 * Matrix.identity(2)
    b2p = Matrix.identity(2)
    inputs = {"A": a, "C": c, "A2": a2, "C2": c2,
              "B1": b1, "B2": b2, "B1p": b1p, "B2p": b2p}

    residuals = _q4_residuals(inputs)
    details: list[tuple[str, object]] = [("product_of_divisors_is_zero", (a @ c).is_zero())]
    details.extend((f"{name}_residual", residual) for name, residual in residuals.items())
    # A C = 0, so the quotient by A C raises ZeroDivisorError under every scheme
    details.append(("right_hand_side", "undefined (zero divisor)"))
    return _report("Q4", "all-builtins", 1, 0, max(residuals.values()), 0, inputs, details,
                   verdict="fails")


def _demo_q5() -> AxiomReport:
    a = Matrix.diagonal([1, -1])
    mat = Matrix.identity(4)
    inputs = {"A": a, "M": mat}
    residuals = _q5_residuals(inputs)
    details: list[tuple[str, object]] = [("trace_of_divisor", 0.0),
                                         ("trace_of_dividend", 4.0)]
    details.extend((f"{name}_residual", residual) for name, residual in residuals.items())
    # tr A = 0, so the trace scheme's quotient raises SingularRealizationError
    details.append(("trace_scheme", "outside domain (tr A = 0)"))
    details.append(("leading_pair_degenerate", _near_degenerate_leading(svd(a).sigma)))
    return _report("Q5", "all-builtins", 1, 0, max(residuals.values()), 0, inputs, details,
                   verdict="fails")


def _demo_q3_vs_trace() -> AxiomReport:
    ones = Matrix.ones(4, 4)  # equals kron(col, row) and kron(J2, J2)
    inputs = {"J": ones, "col": Matrix.ones(4, 1), "row": Matrix.ones(1, 4)}
    q_trace, tensor_value = _rank_gap_sides(inputs)
    details = (
        ("rank_under_trace_rule", _numerical_rank(q_trace)),
        ("rank_of_tensor_factorized_value", _numerical_rank(tensor_value)),
        ("vector_realization", "frobenius"),
    )
    return _report("Q3xTR", "trace", 1, 0, relative_residual(q_trace, tensor_value), 0,
                   inputs, details, verdict="fails")


def demo_counterexamples() -> list[AxiomReport]:
    """The three structural impossibilities, as failing reports with witnesses.

    (1) No quotient satisfies the multiplicativity rule: nonzero A, C
        with AC = 0 force two different values on the same right side.
    (2) No quotient satisfies the unrestricted trace rule: tr(A) = 0
        with tr(M) != 0 leaves nothing to balance the product.
    (3) The trace rule and quotient composition exclude each other: on
        the all-ones matrix the trace rule demands a full-rank Q while
        composition over a column-times-row factorization caps Q at
        rank one.
    """
    return [_demo_q4(), _demo_q5(), _demo_q3_vs_trace()]


# -- the law table and counterexample replay ------------------------------

class _Law(NamedTuple):
    """One law, as :func:`_run` checks it and :func:`replay_counterexample` replays it.

    ``subject(scheme, shared)`` is what the law is stated on, from a scheme in any
    form :func:`resolve_scheme` accepts and the inputs all trials share. ``draw(rng,
    trial, **params)`` gives one trial's inputs (None for the demos, whose witnesses
    are fixed), and ``evaluate(subject, inputs, divisors)`` their residual components,
    where ``divisors(subject, inputs)`` realizes the inputs it divides by.
    ``fixed(subject)`` scores what depends on no draw, once, with its details; the
    report then says whether its verdict and the draws' agree (``iff_consistent``).

    The report's details follow from the rest. Each of ``components`` is reported as
    ``<name>_residual``, and with ``verdicts`` as ``<name>_verdict``. ``cross`` names,
    per component, the scheme law it characterizes: that law is cross-run with the
    same seed, at most at its ``cross_max_dim``, as ``<axiom>_verdict``, and the
    agreement as ``<tail>_iff_<axiom>``, tail being the name after its first ``_``.
    ``by_k`` = (index, key) reports that component again over the trials with a real
    and a complex k, as ``<key>_real_k`` and ``<key>_complex_k``. With ``dense``, the
    draws and the cross-runs ignore ``support_sensitive``. ``cli(name)`` gives the
    runner's ``scheme`` and keywords for the CLI's ``--scheme name``.
    """

    evaluate: Callable[..., tuple[float, ...]]
    draw: Callable[..., dict] | None = None
    subject: Callable = lambda scheme, shared: None
    divisors: Callable[..., dict] = lambda subject, inputs: {}
    fixed: Callable = lambda subject: ((), ())
    components: tuple[str, ...] = ()
    verdicts: bool = False
    cross: tuple[str, ...] = ()
    by_k: tuple[int, str] | None = None
    dense: bool = False
    cross_max_dim: int = 6
    cli: Callable[[str], dict] = lambda name: {"scheme": name}


def _the_scheme(scheme, shared):
    return resolve_scheme(scheme)


_LAWS: dict[str, _Law] = {
    "Q1": _Law(_eval_q1, partial(_draw_block, keys=("M",)), _the_scheme, _divisors),
    "Q2a": _Law(_eval_q2a, partial(_draw_block, keys=("M1", "M2", "k")), _the_scheme,
                _divisors),
    "Q2b": _Law(_eval_q2b, partial(_draw_block, keys=("M", "k")), _the_scheme, _divisors,
                by_k=(0, "max_residual")),
    # its dividend has three factors, so a cross-run keeps it at 3 x 3 divisors
    "Q3": _Law(_eval_q3, _draw_q3, _the_scheme, _divisors, cross_max_dim=3),
    "Q5R": _Law(_eval_q5r, partial(_draw_block, keys=("M",), trace_rule=True), _the_scheme,
                _divisors),
    "Wcond": _Law(_weight_condition_residuals, _draw_weight_pair,
                  lambda scheme, shared: weight_rule_for(scheme),
                  components=("w_transpose", "w_kron"), verdicts=True, cross=("Q1", "Q3"),
                  cli=lambda name: {"scheme": weighted_realization(weight_rule_for(name))}),
    "Rcond": _Law(_realization_condition_residuals, _draw_realization_pair,
                  lambda scheme, shared: realization_for(scheme),
                  components=("q_transpose", "q_scale", "q_kron"),
                  cross=("Q1", "Q2b", "Q3"), by_k=(1, "q_scale_residual"), dense=True),
    "PROJ": _Law(_reconstruction, _draw_basis_dividend, _realized_basis,
                 fixed=_biorthonormality, components=("reconstruction",), verdicts=True,
                 cli=lambda name: {"scheme": name, "basis": _default_basis(name)}),
    "Q4": _Law(lambda _, values, __: tuple(_q4_residuals(values).values())),
    "Q5": _Law(lambda _, values, __: tuple(_q5_residuals(values).values())),
    "Q3xTR": _Law(lambda _, values, __: (relative_residual(*_rank_gap_sides(values)),)),
}

# the laws check_axiom runs, in table order: those stated on a scheme
_SCHEME_LAWS = tuple(name for name, law in _LAWS.items() if law.subject is _the_scheme)
# the laws the CLI's check runs, in table order: every law that draws its trials
_CHECKED_LAWS = tuple(name for name, law in _LAWS.items() if law.draw is not None)


def replay_counterexample(report: AxiomReport, scheme=None) -> float:
    """Re-evaluate a report's counterexample through the public API.

    Returns the reproduced residual, computed by the same evaluator as
    the check or demo that wrote the report. ``scheme`` is only needed
    when the report's scheme descriptor does not name a built-in rule.
    """
    if report.counterexample is None:
        raise ConfigurationError("report carries no counterexample")
    values = report.counterexample.values()
    law = _LAWS.get(report.axiom)
    if law is None:
        raise ConfigurationError(f"cannot replay axiom {report.axiom!r}")
    subject = law.subject(scheme if scheme is not None else report.scheme, values)
    fixed, _ = law.fixed(subject)
    return max((*fixed, *law.evaluate(subject, values, law.divisors(subject, values))))
