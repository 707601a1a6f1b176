"""Exception types raised across the package.

Everything user-facing derives from :class:`KronError`, so callers (and
the CLI) can catch one base class. A few types double as the matching
builtin (``ValueError``, ``IndexError``, ``ZeroDivisionError``) for
callers that think in stdlib terms.
"""


class KronError(Exception):
    """Base class for all errors raised by kronquot."""


class ShapeError(KronError, ValueError):
    """Matrix dimensions are inconsistent with the requested operation."""


class BlockIndexError(KronError, IndexError):
    """A 1-based row/column or block index lies outside its valid range."""


class NonFiniteEntryError(KronError, ValueError):
    """NaN or infinite entries are rejected at construction time."""


class MatrixFormatError(KronError, ValueError):
    """Malformed matrix text, or a matrix entry or scalar that is not a number.

    ``reason`` says what is wrong; ``line`` (1-based, in the text) and
    ``path`` (the file read) locate it when known, and the message
    starts with them: ``"B.mat, line 3: bad scalar token 'x'"``.
    """

    def __init__(self, reason: str, *, line: int | None = None, path: str | None = None):
        where = []
        if path is not None:
            where.append(path)
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{', '.join(where)}: {reason}" if where else reason)
        self.reason = reason
        self.line = line
        self.path = path


class ZeroDivisorError(KronError, ZeroDivisionError):
    """Quotient with the zero matrix as divisor, or a matrix divided by the scalar zero."""


class SingularRealizationError(KronError):
    """The trace rule Q(A) = I/tr(A) needs a nonzero trace."""


class InvalidWeightsError(KronError):
    """Weight rule output breaks the support or unit-sum contract."""


class InvalidRealizationError(KronError):
    """Realization output does not pair to 1 against its argument."""


class InvalidFamilyError(KronError):
    """Linear-quotient component family breaks the delta normalization."""


class UnsupportedInputError(KronError):
    """Input is outside the operation's declared domain."""


class ConfigurationError(KronError):
    """Invalid configuration of a property check."""


class ConvergenceError(KronError):
    """A numerical routine failed to converge: LAPACK's SVD raised LinAlgError."""
