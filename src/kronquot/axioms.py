"""Seeded randomized checks of the quotient algebra, with replayable reports.

Each law is one entry of the table ``_LAWS``: a ``draw`` of a trial's inputs
and an ``evaluate`` of their residuals. Every check runs the one trial loop,
which draws trial t from a generator keyed by (seed, t) and keeps the worst
residual, the first trial on ties. A failing report carries that trial's
inputs; :func:`replay_counterexample` feeds them to the same ``evaluate``.
Identical arguments produce bit-identical reports, and trials never share
generator state, so they could run in any order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from functools import partial
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import matfile
from .errors import ConfigurationError, SingularRealizationError, ZeroDivisorError
from .matrix import FactorShape, Matrix, kron, relative_residual
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

def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))


def _dim(rng: np.random.Generator, max_dim: int) -> int:
    return int(rng.integers(1, max_dim + 1))


def _random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Real, then imaginary parts uniform on [-1, 1)."""
    return rng.uniform(-1.0, 1.0, (rows, cols)) + 1j * rng.uniform(-1.0, 1.0, (rows, cols))


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    return Matrix._adopt(_random_complex(rng, rows, cols))


def _random_nonzero(rng: np.random.Generator, rows: int, cols: int, *,
                    sparsify: bool = False, need_trace: bool = False) -> Matrix:
    while True:
        arr = _random_complex(rng, rows, cols)
        if sparsify:
            arr = arr * (rng.random((rows, cols)) < 0.5)
        if math.sqrt(float(np.vdot(arr, arr).real)) < 1e-6:
            continue
        if need_trace and abs(complex(np.trace(arr))) < 1e-6:
            continue
        return Matrix._adopt(arr)


def _draw_block(rng, trial, square, sparse, max_dim, restricted, *,
                keys: tuple[str, ...], trace_rule: bool = False) -> dict:
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
            inputs[key] = complex(rng.choice(SCALARS))
        elif restricted:
            inputs[key] = kron(a, _random_matrix(rng, s, t))
        else:
            inputs[key] = _random_matrix(rng, m * s, n * t)
    return inputs


def _draw_q3(rng, trial, square, sparse, max_dim, restricted) -> dict:
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


def _draw_weight_pair(rng, trial, max_dim) -> dict:
    sparsify = trial % 3 == 0
    a = _random_nonzero(rng, _dim(rng, max_dim), _dim(rng, max_dim), sparsify=sparsify)
    b = _random_nonzero(rng, _dim(rng, max_dim), _dim(rng, max_dim), sparsify=sparsify)
    return {"A": a, "B": b}


def _draw_realization_pair(rng, trial, square_only, max_dim) -> dict:
    m = _dim(rng, max_dim)
    n = m if square_only else _dim(rng, max_dim)
    s = _dim(rng, max_dim)
    t = s if square_only else _dim(rng, max_dim)
    a = _random_nonzero(rng, m, n, need_trace=square_only)
    b = _random_nonzero(rng, s, t, need_trace=square_only)
    return {"A": a, "B": b, "k": complex(rng.choice(SCALARS))}


def _draw_basis_dividend(rng, trial, m, n, max_dim) -> dict:
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


def _weight_condition_residuals(rule, inputs: dict) -> tuple[float, float]:
    a, b = inputs["A"], inputs["B"]
    transpose_res = relative_residual(rule(a.transpose()), rule(a).transpose())
    kron_res = relative_residual(rule(kron(a, b)), kron(rule(a), rule(b)))
    return transpose_res, kron_res


def _realization_condition_residuals(realization: Realization,
                                     inputs: dict) -> tuple[float, float, float]:
    a, b, k = inputs["A"], inputs["B"], inputs["k"]
    q = realization.q_of
    transpose_res = relative_residual(q(a.transpose()), q(a).transpose())
    scale_res = relative_residual(q(k * a), q(a) / k)
    kron_res = relative_residual(q(kron(b, a)), kron(q(b), q(a)))
    return transpose_res, scale_res, kron_res


def _near_degenerate_leading(sigma: tuple[float, ...]) -> bool:
    """Whether sigma_1 and sigma_2 (when there are two) tie to 1e-8 relative."""
    return len(sigma) >= 2 and sigma[0] > 0.0 and (sigma[0] - sigma[1]) <= 1e-8 * sigma[0]


# -- the trial loop -------------------------------------------------------

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
    for trial in range(trials):
        inputs = draw(_trial_rng(seed, trial), trial)
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


def _report(axiom: str, scheme: str, trials: int, seed: int, worst: float,
            worst_trial: int, worst_inputs: dict, details, verdict: str | None = None
            ) -> AxiomReport:
    """A report whose worst residual came from ``worst_inputs`` at ``worst_trial``.

    The verdict defaults to comparing the worst residual with TOLERANCE;
    a failing report carries the serialized worst inputs.
    """
    if verdict is None:
        verdict = "holds" if worst <= TOLERANCE else "fails"
    counterexample = None
    if verdict == "fails":
        counterexample = Counterexample(trial=worst_trial, residual=worst,
                                        inputs=_serialize_inputs(worst_inputs))
    return AxiomReport(axiom=axiom, scheme=scheme, trials=trials, seed=seed,
                       max_residual=worst, verdict=verdict,
                       counterexample=counterexample, details=tuple(details))


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
    law = _LAWS[axiom]
    trials, seed, max_dim = _validate_common(trials, seed, max_dim)
    evaluator = resolve_scheme(scheme)
    descriptor = _checked_descriptor(evaluator)
    draw = partial(law.draw, square=getattr(evaluator, "square_only", False),
                   sparse=getattr(evaluator, "support_sensitive", False), max_dim=max_dim,
                   restricted=restricted)
    # one flag per divisor that carries the SVD its Q was built from
    degenerate: list[bool] = []

    def evaluate(inputs):
        divisors = _divisors(evaluator, inputs)
        components = law.evaluate(evaluator, inputs, divisors)
        degenerate.extend(_near_degenerate_leading(divisor.svd.sigma)
                          for divisor in divisors.values() if divisor.svd is not None)
        return components

    worst, worst_trial, worst_inputs, _, real_k, complex_k = _run_trials(
        draw, evaluate, trials, seed)
    details: list[tuple[str, object]] = []
    if restricted:
        details.append(("restricted", True))
    if axiom == "Q2b":
        if real_k is not None:
            details.append(("max_residual_real_k", real_k[0]))
        if complex_k is not None:
            details.append(("max_residual_complex_k", complex_k[0]))
    if degenerate:
        details.append(("degenerate_leading_pairs", sum(degenerate)))
    return _report(axiom, descriptor, trials, seed, worst, worst_trial, worst_inputs, details)


# -- weight and realization condition checks ----------------------------

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
    scheme, ``weighted_realization(weight_rule)``, with the same seed and
    records whether the verdicts agree; its descriptor is the report's scheme.
    """
    trials, seed, max_dim = _validate_common(trials, seed, max_dim)
    scheme = weighted_realization(weight_rule)
    descriptor = _checked_descriptor(scheme)
    law = _LAWS["Wcond"]
    worst, worst_trial, worst_inputs, (worst_t, worst_k), _, _ = _run_trials(
        partial(law.draw, max_dim=max_dim), partial(law.evaluate, weight_rule), trials, seed)

    q1 = check_axiom("Q1", scheme, trials, seed, max_dim)
    q3 = check_axiom("Q3", scheme, trials, seed, max_dim)
    transpose_holds = worst_t <= TOLERANCE
    kron_holds = worst_k <= TOLERANCE
    details = (
        ("w_transpose_residual", worst_t),
        ("w_kron_residual", worst_k),
        ("w_transpose_verdict", "holds" if transpose_holds else "fails"),
        ("w_kron_verdict", "holds" if kron_holds else "fails"),
        ("q1_verdict", q1.verdict),
        ("q3_verdict", q3.verdict),
        ("transpose_iff_q1", transpose_holds == q1.holds),
        ("kron_iff_q3", kron_holds == q3.holds),
    )
    return _report("Wcond", descriptor, trials, seed, worst,
                   worst_trial, worst_inputs, details)


def check_realization_conditions(realization, trials: int, seed: int,
                                 max_dim: int = 4) -> AxiomReport:
    """Check the three Q(.) identities characterizing Q1, Q2b and Q3 for a uniform
    scheme, given in any form :func:`realization_for` accepts.

    Each identity is evaluated directly on random draws, then cross-run
    through check_axiom on the induced uniform quotient with the same
    seed; a one-sided disagreement would flag a bug in the suite itself
    and is recorded under the ``*_iff_*`` detail keys. Divisors are
    square with nonzero trace when the realization is ``square_only``.
    The scale identity draws k from ``SCALARS`` and also records its maxima
    over real and over complex k, ``q_scale_residual_real_k`` and
    ``q_scale_residual_complex_k``.
    """
    trials, seed, max_dim = _validate_common(trials, seed, max_dim)
    law = _LAWS["Rcond"]
    realization = law.subject(realization)
    descriptor = _checked_descriptor(realization)
    run = _run_trials(partial(law.draw, square_only=realization.square_only, max_dim=max_dim),
                      partial(law.evaluate, realization), trials, seed)
    worst, worst_trial, worst_inputs, (worst_t, worst_s, worst_k), real_k, complex_k = run

    # the cross-runs draw dense divisors, like the identity checks above
    dense = dataclasses.replace(realization, support_sensitive=False)
    q1 = check_axiom("Q1", dense, trials, seed, max_dim)
    q2b = check_axiom("Q2b", dense, trials, seed, max_dim)
    q3 = check_axiom("Q3", dense, trials, seed, min(max_dim, 3))
    t_holds = worst_t <= TOLERANCE
    s_holds = worst_s <= TOLERANCE
    k_holds = worst_k <= TOLERANCE
    details: list[tuple[str, object]] = [
        ("q_transpose_residual", worst_t),
        ("q_scale_residual", worst_s),
        ("q_kron_residual", worst_k),
    ]
    if real_k is not None:
        details.append(("q_scale_residual_real_k", real_k[1]))
    if complex_k is not None:
        details.append(("q_scale_residual_complex_k", complex_k[1]))
    details.extend([
        ("q1_verdict", q1.verdict),
        ("q2b_verdict", q2b.verdict),
        ("q3_verdict", q3.verdict),
        ("transpose_iff_q1", t_holds == q1.holds),
        ("scale_iff_q2b", s_holds == q2b.holds),
        ("kron_iff_q3", k_holds == q3.holds),
    ])
    return _report("Rcond", descriptor, trials, seed, worst,
                   worst_trial, worst_inputs, details)


# -- projection / basis expansion check ----------------------------------

def _numerical_rank(mat: Matrix) -> int:
    return _rank_of(svd(mat).sigma, mat.rows, mat.cols)


def _biorthonormal_residual(basis: Sequence[Divisor]) -> tuple[float, tuple[int, int]]:
    """Worst |pfp_scalar(Q(A_j), A_k) - delta_jk| over the realized basis, and its
    1-based (j, k)."""
    worst = -1.0
    worst_pair = (1, 1)
    for j, k in product(range(len(basis)), repeat=2):
        expected = 1.0 if j == k else 0.0
        residual = abs(pfp_scalar(basis[j].q, basis[k].a) - expected)
        if residual > worst:
            worst, worst_pair = residual, (j + 1, k + 1)
    return worst, worst_pair


def _reconstruction_residual(basis: Sequence[Divisor], mat: Matrix) -> float:
    """Relative distance between M and sum_j kron(A_j, A_j quot M) over the realized basis."""
    m, n = basis[0].a.rows, basis[0].a.cols
    shape = FactorShape(m, n, mat.rows // m, mat.cols // n)
    total = Matrix.zero(mat.rows, mat.cols)
    for elem in basis:
        total = total + kron(elem.a, elem.quotient(mat, shape))
    return (mat - total).frobenius_norm() / max(mat.frobenius_norm(), 1e-300)


def _projection_residuals(realization: Realization, inputs: dict) -> tuple[float, float]:
    """Biorthonormality of the inputs' basis.1, basis.2, ..., and reconstruction of M."""
    basis = [realize(realization, value) for key, value in inputs.items()
             if key.startswith("basis.")]
    return _biorthonormal_residual(basis)[0], _reconstruction_residual(basis, inputs["M"])


def check_projection(basis: Sequence[Matrix], scheme, trials: int, seed: int,
                     max_dim: int = 4) -> AxiomReport:
    """Check basis biorthonormality against reconstruction by quotients.

    For a uniform scheme realized by Q and a basis A_1..A_mn of the
    m x n matrices, M = sum_j kron(A_j, A_j quot M) holds for every M
    exactly when pfp_scalar(Q(A_j), A_k) = delta_jk. Both sides are
    measured; their verdicts are expected to agree.
    """
    trials, seed, max_dim = _validate_common(trials, seed, max_dim)
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
    stack = Matrix._adopt(np.array([mat._a.ravel() for mat in basis]))
    if _numerical_rank(stack) != m * n:
        raise ConfigurationError("basis does not span the matrix space")

    law = _LAWS["PROJ"]
    realization = law.subject(scheme)
    descriptor = _checked_descriptor(realization)
    # the basis is realized once; biorthonormality depends on no draw, so the
    # trials evaluate reconstruction only
    divisors = [realize(realization, mat) for mat in basis]
    biorth_worst, worst_pair = _biorthonormal_residual(divisors)
    recon_worst, worst_trial, worst_inputs, _, _, _ = _run_trials(
        partial(law.draw, m=m, n=n, max_dim=max_dim),
        lambda inputs: (_reconstruction_residual(divisors, inputs["M"]),),
        trials, seed)

    biorth_holds = biorth_worst <= TOLERANCE
    recon_holds = recon_worst <= TOLERANCE
    details = (
        ("biorthonormal_residual", biorth_worst),
        ("biorthonormal_verdict", "holds" if biorth_holds else "fails"),
        ("worst_pair_j", worst_pair[0]),
        ("worst_pair_k", worst_pair[1]),
        ("reconstruction_residual", recon_worst),
        ("reconstruction_verdict", "holds" if recon_holds else "fails"),
        ("iff_consistent", biorth_holds == recon_holds),
    )
    inputs = {f"basis.{idx + 1}": mat for idx, mat in enumerate(basis)}
    inputs["M"] = worst_inputs["M"]
    return _report("PROJ", descriptor, trials, seed,
                   max(biorth_worst, recon_worst), worst_trial, inputs, details,
                   verdict="holds" if biorth_holds and recon_holds else "fails")


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
    try:
        left_quotient("frobenius", a @ c, kron(a, b1) @ kron(c, b2),
                      FactorShape(2, 2, 2, 2))
        details.append(("right_hand_side", "defined"))
    except ZeroDivisorError:
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
    try:
        left_quotient("trace", a, mat, FactorShape(2, 2, 2, 2))
        details.append(("trace_scheme", "defined"))
    except SingularRealizationError:
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
    """``evaluate(subject, inputs)`` gives a law's residual components, and
    ``draw(rng, trial, **params)`` one trial's inputs; ``subject(scheme)`` is
    what the law is stated on. The demo laws have fixed witnesses and schemes, and
    check_axiom runs exactly the laws whose subject is ``resolve_scheme``; their
    ``evaluate`` also takes the trial's ``_divisors``."""

    evaluate: Callable[..., tuple[float, ...]]
    draw: Callable[..., dict] | None = None
    subject: Callable | None = None


_LAWS: dict[str, _Law] = {
    "Q1": _Law(_eval_q1, partial(_draw_block, keys=("M",)), resolve_scheme),
    "Q2a": _Law(_eval_q2a, partial(_draw_block, keys=("M1", "M2", "k")), resolve_scheme),
    "Q2b": _Law(_eval_q2b, partial(_draw_block, keys=("M", "k")), resolve_scheme),
    "Q3": _Law(_eval_q3, _draw_q3, resolve_scheme),
    "Q5R": _Law(_eval_q5r, partial(_draw_block, keys=("M",), trace_rule=True), resolve_scheme),
    "Wcond": _Law(_weight_condition_residuals, _draw_weight_pair, weight_rule_for),
    "Rcond": _Law(_realization_condition_residuals, _draw_realization_pair, realization_for),
    "PROJ": _Law(_projection_residuals, _draw_basis_dividend, realization_for),
    "Q4": _Law(lambda _, values: tuple(_q4_residuals(values).values())),
    "Q5": _Law(lambda _, values: tuple(_q5_residuals(values).values())),
    "Q3xTR": _Law(lambda _, values: (relative_residual(*_rank_gap_sides(values)),)),
}

# the laws check_axiom runs, in table order: those stated on a scheme
_SCHEME_LAWS = tuple(name for name, law in _LAWS.items() if law.subject is resolve_scheme)


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
    if law.subject is None:
        return max(law.evaluate(None, values))
    subject = law.subject(scheme if scheme is not None else report.scheme)
    if law.subject is resolve_scheme:
        return max(law.evaluate(subject, values, _divisors(subject, values)))
    return max(law.evaluate(subject, values))
