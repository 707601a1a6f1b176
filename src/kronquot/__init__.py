"""Kronecker products, quotients and remainders for dense complex matrices.

The package centers on one question: given M close to kron(A, B) and
one factor, how do you recover the other, and which algebraic rules can
such a recovery obey? It provides the product itself, a taxonomy of
left-quotient schemes (entrywise averages, weighted averages, the
Frobenius-optimal factor, an operator-norm variant, a trace-based rule,
and general linear rules), right quotients, remainders and divisor
tests, plus a seeded randomized suite that verifies or refutes the
candidate algebraic laws per scheme. Every scheme but the general
linear rules is uniform, A quot M = pfp(Q(A), M). Every scheme evaluates
through one pipeline, realize the divisor then apply it. A right quotient
applies it to the entries within each block of the dividend, read in
place, where a left quotient applies it to the block grid.
"""

from .axioms import (
    SCALARS,
    TOLERANCE,
    AxiomReport,
    Counterexample,
    check_axiom,
    check_projection,
    check_realization_conditions,
    check_weight_conditions,
    demo_counterexamples,
    replay_counterexample,
)
from .errors import (
    BlockIndexError,
    ConfigurationError,
    ConvergenceError,
    InvalidFamilyError,
    InvalidRealizationError,
    InvalidWeightsError,
    KronError,
    MatrixFormatError,
    NonFiniteEntryError,
    ShapeError,
    SingularRealizationError,
    UnsupportedInputError,
    ZeroDivisorError,
)
from .matfile import (
    format_matrix,
    format_scalar,
    parse_matrix,
    parse_scalar,
    read_matrix,
    write_matrix,
)
from .matrix import FactorShape, Matrix, block, kron, relative_residual
from .pfp import pfp, pfp_scalar
from .quotients import (
    Divisor,
    QuotientScheme,
    Realization,
    frobenius_weights,
    is_divisor,
    left_quotient,
    leopardi_weights,
    realization_for,
    realize,
    remainder,
    right_quotient,
    trace_realization,
    weighted_realization,
)
from .singular import SvdResult, svd

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BlockIndexError",
    "ConfigurationError",
    "ConvergenceError",
    "Counterexample",
    "Divisor",
    "FactorShape",
    "InvalidFamilyError",
    "InvalidRealizationError",
    "InvalidWeightsError",
    "KronError",
    "Matrix",
    "MatrixFormatError",
    "NonFiniteEntryError",
    "QuotientScheme",
    "Realization",
    "SCALARS",
    "ShapeError",
    "SingularRealizationError",
    "SvdResult",
    "TOLERANCE",
    "UnsupportedInputError",
    "ZeroDivisorError",
    "block",
    "check_axiom",
    "check_projection",
    "check_realization_conditions",
    "check_weight_conditions",
    "demo_counterexamples",
    "format_matrix",
    "format_scalar",
    "frobenius_weights",
    "is_divisor",
    "kron",
    "left_quotient",
    "leopardi_weights",
    "parse_matrix",
    "parse_scalar",
    "pfp",
    "pfp_scalar",
    "read_matrix",
    "realization_for",
    "realize",
    "relative_residual",
    "remainder",
    "replay_counterexample",
    "right_quotient",
    "svd",
    "trace_realization",
    "weighted_realization",
    "write_matrix",
]
