"""Whitespace-separated matrix text format.

Layout::

    # optional comment lines anywhere
    rows cols                      (two runs of ASCII digits)
    a11 a12 ... a1n
    ...
    am1 am2 ... amn

Token grammar, with ``F`` a decimal binary64 literal such as ``1.5``,
``.5``, ``2.`` or ``-2e-3`` (ASCII digits, an optional point, an optional
exponent; no ``nan``, ``inf`` or underscores)::

    token := [+-]? F                  a
           | [+-]? F? i               bi, where a bare ``i`` means 1i
           | [+-]? F [+-] F? i        a+bi, a-bi

Tokens are separated by any run of whitespace. Writers emit 17
significant digits, which reproduces every binary64 value exactly on
read-back.

Reads and writes go a row at a time. A data row of ASCII digits, ``.eE+-i``
and blanks takes one ``complex`` call per token, which accepts exactly the
grammar on those characters; the token regular expression runs only on a
row with another character or a token ``complex`` refuses. A row is written
with one printf-style ``%`` call, and a scalar through the same templates.
Errors name the line at fault and, through :func:`read_matrix`, the file.
"""

from __future__ import annotations

import cmath
import math
import os
import re

import numpy as np

from .errors import MatrixFormatError, NonFiniteEntryError
from .matrix import Matrix, _scalar

_FLOAT = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a, a+bi / a-bi and bi, with the shared [+-]?F prefix factored out
_TOKEN_RE = re.compile(rf"[+-]?(?:{_FLOAT}(?:[+-](?:{_FLOAT})?i)?|(?:{_FLOAT})?i)")
# complex() accepts exactly the grammar on these; it would also take the letters
# of nan/inf, "_", parentheses, "j"/"J" and non-ASCII or \x1c-\x1f whitespace
_ROW_CHARS = b"0123456789.eE+-i \t\n\r\x0b\x0c"

# Token templates indexed by form: a+bi / a-bi, a, bi. The sign of the
# general form is the sign bit of b, so -0.0 writes as "-0".
_FORMS = np.array(["%.17g%+.17gi", "%.17g", "%.17gi"], dtype=object)


def parse_scalar(token: str) -> complex:
    """Parse one scalar token; NonFiniteEntryError, naming it, for a literal such as
    ``1e400`` that overflows binary64."""
    if not _TOKEN_RE.fullmatch(token):
        raise MatrixFormatError(f"bad scalar token {token!r}")
    value = complex(token.replace("i", "j"))
    if not cmath.isfinite(value):
        raise NonFiniteEntryError(f"scalar token {token!r} overflows binary64")
    return value


def _ascii_int(text: str) -> int:
    """int(text) for a run of ASCII digits only; ValueError for the signs, underscores,
    surrounding blanks and non-ASCII digits that int() would also take."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(text)


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def format_scalar(z: complex) -> str:
    """Format a scalar as the shortest of the a / bi / a+bi token forms.

    Like ``Matrix * k``, raises :class:`NonFiniteEntryError` for a NaN or infinite
    part, which no token can spell, and :class:`MatrixFormatError` for a non-number.
    """
    z = _scalar(z)
    re_, im = z.real, z.imag
    if im == 0.0 and not _signbit(im):
        return _FORMS[1] % re_
    if re_ == 0.0 and not _signbit(re_):
        return _FORMS[2] % im
    return _FORMS[0] % (re_, im)


def parse_matrix(text: str) -> Matrix:
    """Parse a matrix from text; ``#`` lines and blank lines are skipped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise MatrixFormatError("no content: expected a 'rows cols' header line")
    header_line, header_text = lines[0]
    header = header_text.split()
    if len(header) != 2:
        raise MatrixFormatError(f"header must be 'rows cols', got {header_text!r}",
                                line=header_line)
    try:
        rows, cols = _ascii_int(header[0]), _ascii_int(header[1])
    except ValueError:
        raise MatrixFormatError(f"header must hold two integers, got {header_text!r}",
                                line=header_line) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {rows}x{cols}",
                                line=header_line)
    data = lines[1:]
    if len(data) != rows:
        raise MatrixFormatError(f"expected {rows} data line(s), found {len(data)}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for row, (lineno, line) in enumerate(data):
        tokens = line.replace("i", "j").split()
        if len(tokens) != cols:
            raise MatrixFormatError(f"row {row + 1} has {len(tokens)} token(s), "
                                    f"expected {cols}", line=lineno)
        try:
            if line.isascii() and not line.encode().translate(None, _ROW_CHARS):
                out[row] = np.fromiter(map(complex, tokens), np.complex128, cols)
                continue
        except ValueError:
            pass
        # another character, or a token complex() refuses: the regex names the bad token
        for token in line.split():
            if not _TOKEN_RE.fullmatch(token):
                raise MatrixFormatError(f"bad scalar token {token!r}", line=lineno)
        out[row] = np.fromiter(map(complex, tokens), np.complex128, cols)
    try:
        return Matrix._adopt(out)
    except NonFiniteEntryError:
        # the grammar has no nan or inf, so a literal such as 1e400 overflowed;
        # its line and column are looked up only on failure
        row, col = (int(k) for k in np.argwhere(~np.isfinite(out))[0])
        lineno, line = data[row]
        raise NonFiniteEntryError(f"line {lineno}: entry {col + 1} "
                                  f"{line.split()[col]!r} overflows binary64") from None


def format_matrix(m: Matrix) -> str:
    """Render a matrix in the text format (ends with a newline)."""
    a = m._a
    real_only = (a.imag == 0.0) & ~np.signbit(a.imag)
    imag_only = (a.real == 0.0) & ~np.signbit(a.real) & ~real_only
    forms = real_only.view(np.uint8) + 2 * imag_only.view(np.uint8)
    # which of each entry's (real, imag) pair its template prints
    used = np.stack((~imag_only, ~real_only), axis=-1).reshape(m.rows, 2 * m.cols)
    out = [f"{m.rows} {m.cols}"]
    for row_forms, parts, row_used in zip(forms, a.view(np.float64), used):
        out.append(" ".join(_FORMS[row_forms].tolist()) % tuple(parts[row_used].tolist()))
    out.append("")
    return "\n".join(out)


def read_matrix(path: str | os.PathLike) -> Matrix:
    """Read a matrix file; a format or non-finite entry error names the file and the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                                path=os.fsdecode(path)) from None
    try:
        return parse_matrix(text)
    except MatrixFormatError as exc:
        raise MatrixFormatError(exc.reason, line=exc.line, path=os.fsdecode(path)) from None
    except NonFiniteEntryError as exc:
        raise NonFiniteEntryError(f"{os.fsdecode(path)}, {exc}") from None


def write_matrix(path: str | os.PathLike, m: Matrix) -> None:
    """Write a matrix file; the text is rendered before the target is opened, so a
    failed render leaves an existing file as it was."""
    text = format_matrix(m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def to_line(m: Matrix) -> str:
    """Single-line rendering with ``;`` as the line separator."""
    return ";".join(format_matrix(m).splitlines())


def from_line(line: str) -> Matrix:
    return parse_matrix(line.replace(";", "\n"))
