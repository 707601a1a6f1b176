"""Matrix text format: token grammar, round trips, failure modes."""

import itertools
import math
import re

import numpy as np
import pytest

from kronquot import (
    Matrix,
    MatrixFormatError,
    NonFiniteEntryError,
    format_matrix,
    format_scalar,
    parse_matrix,
    parse_scalar,
    read_matrix,
    write_matrix,
)
from kronquot import matfile
from kronquot.matfile import from_line, to_line
from oracles import format_matrix_by_scalar


@pytest.mark.parametrize("token,value", [
    ("1.5", 1.5),
    ("-2e-3", -2e-3),
    ("+0.25", 0.25),
    ("1.5+2.25i", 1.5 + 2.25j),
    ("1.5-2.25i", 1.5 - 2.25j),
    ("2i", 2j),
    ("-3.5i", -3.5j),
    ("i", 1j),
    ("-i", -1j),
    ("1+i", 1 + 1j),
    ("1e-2-3e-4i", 1e-2 - 3e-4j),
    (".5i", 0.5j),
])
def test_parse_scalar(token, value):
    assert parse_scalar(token) == value


@pytest.mark.parametrize("token", [
    "1+2j", "(1+2i)", "nan", "inf", "-inf", "1e", "++1", "1 2", "", "2ii", "1.2.3",
    "i5", "1+2", "--1",
    # decimal digits outside ASCII 0-9, which complex() reads but the grammar excludes
    "١", "2٩i", "1+۲i", "1e१", "１",
])
def test_parse_scalar_rejects(token):
    with pytest.raises(MatrixFormatError):
        parse_scalar(token)


@pytest.mark.parametrize("token", ["1\n", "1 "])
def test_parse_scalar_rejects_trailing_whitespace(token):
    with pytest.raises(MatrixFormatError):
        parse_scalar(token)


def test_format_scalar_compact_forms():
    assert format_scalar(1.5) == "1.5"
    assert format_scalar(2j) == "2i"
    assert format_scalar(1.5 + 2.25j) == "1.5+2.25i"
    assert format_scalar(1.5 - 2.25j) == "1.5-2.25i"
    assert format_scalar(0.0) == "0"


@pytest.mark.parametrize("z", [complex("inf"), complex("nan"), complex(1, math.inf),
                               complex(-math.inf, 2), float("nan")])
def test_format_scalar_rejects_a_non_finite_scalar(z):
    # parse_scalar takes no inf or nan token, so no text could carry one back
    with pytest.raises(NonFiniteEntryError):
        format_scalar(z)


@pytest.mark.parametrize("k", ["x", None, [1], "2", " 1+2j ", b"1", np.str_("2")])
def test_format_scalar_rejects_a_non_number(k):
    # text is refused even where complex() would parse it
    with pytest.raises(MatrixFormatError, match=re.escape(f"scalar is not a number: {k!r}")):
        format_scalar(k)


def test_scalar_round_trip_preserves_bits():
    rng = np.random.default_rng(21)
    specials = [0.0, -0.0, 1e-300, -1e-300, 0.1, 1 / 3, 2**-1074, 1.7976931348623157e308]
    values = [complex(a, b) for a in specials for b in specials]
    values += [complex(x, y) for x, y in rng.uniform(-1e5, 1e5, (50, 2))]
    for z in values:
        back = parse_scalar(format_scalar(z))
        assert math.copysign(1.0, back.real) == math.copysign(1.0, z.real)
        assert math.copysign(1.0, back.imag) == math.copysign(1.0, z.imag)
        assert back == z or (back.real == z.real and back.imag == z.imag)


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(22)
    for _ in range(10):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        m = Matrix.from_array(rng.uniform(-10, 10, (rows, cols))
                              + 1j * rng.uniform(-10, 10, (rows, cols)))
        assert parse_matrix(format_matrix(m)) == m


def test_file_round_trip(tmp_path):
    m = Matrix.from_rows([[0.1, 2 + 3j], [-4j, 5]])
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    assert read_matrix(path) == m
    # a second write produces identical bytes
    first = path.read_bytes()
    write_matrix(path, read_matrix(path))
    assert path.read_bytes() == first


def test_a_failed_render_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "m.mat"
    write_matrix(path, Matrix.from_rows([[1, 2j]]))
    before = path.read_bytes()

    def failing(m):
        raise KeyboardInterrupt

    monkeypatch.setattr(matfile, "format_matrix", failing)
    with pytest.raises(KeyboardInterrupt):
        write_matrix(path, Matrix.from_rows([[3]]))
    assert path.read_bytes() == before


def test_emits_17_significant_digits():
    text = format_matrix(Matrix.from_rows([[0.1]]))
    assert "0.10000000000000001" in text


# the literal text at %g's notation switches, the extremes and the signed zeros
_PINNED = [
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (1e-05, "1.0000000000000001e-05"),
    (0.0001, "0.0001"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e+308, "1.7976931348623157e+308"),
    (-0.0, "-0"),
    (2.0, "2"),
    (complex(1.0, -0.0), "1-0i"),
    (complex(-0.0, 1.0), "-0+1i"),
    (complex(0.0, -0.0), "-0i"),
]


@pytest.mark.parametrize("z,text", _PINNED)
def test_the_writers_pinned_text(z, text):
    assert format_scalar(z) == text
    assert format_matrix(Matrix.from_array(np.array([[z]], dtype=np.complex128))) == \
        f"1 1\n{text}\n"


def test_the_writers_pinned_text_in_one_row():
    m = Matrix.from_array(np.array([[z for z, _ in _PINNED]], dtype=np.complex128))
    assert format_matrix(m) == f"1 {len(_PINNED)}\n" + " ".join(t for _, t in _PINNED) + "\n"


def test_comments_and_blank_lines_skipped():
    text = "# header comment\n\n2 2\n1 2\n# between rows\n3 4\n# trailing\n"
    assert parse_matrix(text) == Matrix.from_rows([[1, 2], [3, 4]])


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n",
    "2\n1 2\n",
    "a b\n1 2\n",
    "0 2\n",
    "2 2\n1 2\n3\n",
    "2 2\n1 2\n",
    "2 2\n1 2\n3 4\n5 6\n",
    "1 1\nbogus\n",
])
def test_parse_matrix_rejects(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_overflowing_literal_is_rejected_as_non_finite():
    with pytest.raises(NonFiniteEntryError):
        parse_matrix("1 1\n1e400\n")


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1-1e400i", "1e309i"])
def test_overflowing_scalar_literal_names_the_token(token):
    with pytest.raises(NonFiniteEntryError, match=f"^scalar token {re.escape(repr(token))} "):
        parse_scalar(token)


@pytest.mark.parametrize("token,column", [("1e400", 2), ("-1e309i", 1), ("1-1e400i", 3)],
                         ids=["real", "imaginary", "a+bi"])
def test_overflowing_matrix_literal_names_the_token_and_column(token, column):
    row = ["1", "2", "3"]
    row[column - 1] = token
    text = "2 3\n4 5 6\n" + " ".join(row) + "\n"
    message = f"line 3: entry {column} {token!r} overflows binary64"
    with pytest.raises(NonFiniteEntryError) as info:
        parse_matrix(text)
    assert str(info.value) == message


def test_single_line_encoding_round_trip():
    m = Matrix.from_rows([[1, 2 + 0.5j], [3, -4]])
    line = to_line(m)
    assert "\n" not in line
    assert from_line(line) == m


# -- row-at-a-time parsing and formatting ---------------------------------

_SPECIALS = [0.0, -0.0, 2**-1074, -2**-1074, 1e-310, -1e-310, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1 / 3, 1.0, -2.5,
             1e16, -123456789.125, 5e-324 * 3]


def _bits(m):
    return m.to_array().view(np.uint64)


def _special_matrix(size):
    """Every (real, imag) pair of specials, shuffled into each row."""
    rng = np.random.default_rng(23)
    pairs = np.array([complex(a, b) for a in _SPECIALS for b in _SPECIALS])
    rows = [pairs[rng.permutation(pairs.size)][:size] for _ in range(size)]
    return Matrix.from_array(np.array(rows))


def test_large_matrix_round_trip_bit_exact_with_signed_zeros_and_extremes():
    m = _special_matrix(256)
    back = parse_matrix(format_matrix(m))
    assert back.shape == (256, 256)
    assert np.array_equal(_bits(back), _bits(m))


@pytest.mark.parametrize("m", [
    _special_matrix(256),
    _special_matrix(7),
    Matrix.from_rows([[0.0, -0.0, 1.5, -2.0]]),
    Matrix.from_rows([[1j], [-0.0j], [complex(0.0, -0.0)], [complex(-0.0, 0.0)]]),
    Matrix.from_array(np.random.default_rng(24).uniform(-1e5, 1e5, (9, 13))
                      + 1j * np.random.default_rng(25).uniform(-1e5, 1e5, (9, 13))),
])
def test_format_matrix_matches_the_per_entry_oracle(m):
    assert format_matrix(m) == format_matrix_by_scalar(m)


def test_separators_and_line_ends():
    text = ("2 3\r\n"
            "1\t2  3 \r\n"
            "# comment\t \r\n"
            "  -4i\t\t5+6i   .5 \t\r\n")
    # the token -4i reads as 0-4i; the Python literal -4j would carry a real -0.0
    want = Matrix.from_rows([[1, 2, 3], [complex(0.0, -4.0), 5 + 6j, 0.5]])
    got = parse_matrix(text)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(parse_matrix(text.replace("\r\n", "\n"))), _bits(want))


# (text, line at fault or None, fragment of the reason)
_REJECTS = [
    ("", None, "no content"),
    ("# only a comment\n", None, "no content"),
    ("2\n1 2\n", 1, "header must be 'rows cols'"),
    ("a b\n1 2\n", 1, "two integers"),
    # the header takes ASCII digit runs only, like the entries: none of int()'s
    # underscores, signs or other scripts' digits
    ("1_0 1\n" + "1\n" * 10, 1, "two integers"),
    ("٣ 1\n1\n1\n1\n", 1, "two integers"),
    ("1 ３\n1 2 3\n", 1, "two integers"),
    ("+2 1\n1\n1\n", 1, "two integers"),
    ("-1 2\n", 1, "two integers"),
    ("0 2\n", 1, "dimensions must be positive"),
    ("2 2\n1 2\n3\n", 3, "row 2 has 1 token(s), expected 2"),
    ("2 2\n1 2\n", None, "expected 2 data line(s), found 1"),
    ("2 2\n1 2\n3 4\n5 6\n", None, "expected 2 data line(s), found 3"),
    ("1 1\nbogus\n", 2, "'bogus'"),
    ("# c\n\n2 2\n1 2\n# between rows\n\n3 4x\n", 7, "'4x'"),
    ("# c\n2 2\n\n1 2 3\n3 4\n", 4, "row 1 has 3 token(s)"),
    ("1 3\n1 2+i nan\n", 2, "'nan'"),
    # Arabic-Indic, extended Arabic-Indic, Devanagari and fullwidth digits
    ("1 2\n١ 2٩i\n", 2, "'١'"),
    ("1 2\n1 2٩i\n", 2, "'2٩i'"),
    ("1 2\n1+۲i 1e१\n", 2, "'1+۲i'"),
    ("1 1\n１\n", 2, "'１'"),
]


@pytest.mark.parametrize("text,line,reason", _REJECTS)
def test_parse_errors_name_the_line_and_token(text, line, reason):
    with pytest.raises(MatrixFormatError) as info:
        parse_matrix(text)
    assert info.value.line == line
    assert reason in info.value.reason
    assert str(info.value) == (f"line {line}: {info.value.reason}" if line else info.value.reason)


@pytest.mark.parametrize("text,line,reason", _REJECTS)
def test_read_errors_name_the_file(tmp_path, text, line, reason):
    path = tmp_path / "bad.mat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert info.value.path == str(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"{path}, line {line}: " if line else f"{path}: ")
    assert reason in str(info.value)


def test_non_utf8_file_is_a_format_error_naming_the_file(tmp_path):
    path = tmp_path / "latin1.mat"
    path.write_bytes("1 1\n1\xe9\n".encode("latin-1"))
    with pytest.raises(MatrixFormatError, match="not UTF-8") as info:
        read_matrix(path)
    assert info.value.path == str(path)


def test_overflowing_literal_in_a_file_stays_non_finite(tmp_path):
    path = tmp_path / "big.mat"
    path.write_text("1 2\n1 -1e400i\n")
    with pytest.raises(NonFiniteEntryError):
        read_matrix(path)


def test_overflowing_literal_names_its_line(tmp_path):
    text = "2 2\n1 2\n# a comment\n1 1e400\n"
    with pytest.raises(NonFiniteEntryError, match=r"^line 4: "):
        parse_matrix(text)
    path = tmp_path / "big.mat"
    path.write_text(text)
    with pytest.raises(NonFiniteEntryError) as info:
        read_matrix(path)
    assert str(info.value).startswith(f"{path}, line 4: ")


def test_valid_rows_skip_the_per_entry_paths(monkeypatch):
    """Parsing and formatting run no per-token or per-entry scalar call."""
    m = _special_matrix(5)
    text = format_matrix(m)

    def forbidden(*args):
        raise AssertionError("per-entry path taken")

    class ForbiddenRegex:
        fullmatch = staticmethod(forbidden)

    monkeypatch.setattr(matfile, "parse_scalar", forbidden)
    monkeypatch.setattr(matfile, "format_scalar", forbidden)
    monkeypatch.setattr(matfile, "_TOKEN_RE", ForbiddenRegex)
    monkeypatch.setattr(Matrix, "entry", forbidden)
    assert format_matrix(m) == text
    assert np.array_equal(_bits(parse_matrix(text)), _bits(m))
    # what format_matrix writes never needs the token regex, at any size
    big = _special_matrix(64)
    assert np.array_equal(_bits(parse_matrix(format_matrix(big))), _bits(big))


# -- the regex-free row path -----------------------------------------------

def _complex_accepts(token):
    try:
        complex(token.replace("i", "j"))
    except ValueError:
        return False
    return True


def test_complex_accepts_exactly_the_grammar_on_short_tokens():
    """Every token of length 1-6 over 01.eE+-i: the fast path's premise."""
    for length in range(1, 7):
        for chars in itertools.product("01.eE+-i", repeat=length):
            token = "".join(chars)
            assert bool(matfile._TOKEN_RE.fullmatch(token)) == _complex_accepts(token), token


def test_complex_accepts_exactly_the_grammar_on_random_tokens():
    rng = np.random.default_rng(26)
    alphabet = list("0123456789.eE+-i")
    # weight the separators and exponents up so that long tokens still parse sometimes
    weights = np.array([1.0] * 10 + [2.0] * 6)
    weights /= weights.sum()
    accepted = 0
    for _ in range(20000):
        token = "".join(rng.choice(alphabet, int(rng.integers(1, 31)), p=weights))
        ok = bool(matfile._TOKEN_RE.fullmatch(token))
        assert ok == _complex_accepts(token), token
        accepted += ok
        # and the matrix parser agrees with the scalar one on the token
        try:
            got = parse_matrix(f"1 2\n1 {token}\n").entry(1, 2)
        except MatrixFormatError as exc:
            assert not ok and exc.line == 2 and repr(token) in exc.reason
        except NonFiniteEntryError:
            assert ok
            with pytest.raises(NonFiniteEntryError, match=re.escape(repr(token))):
                parse_scalar(token)
        else:
            assert ok and repr(got) == repr(parse_scalar(token))
    assert accepted > 1000


@pytest.mark.parametrize("sep", ["\xa0", "\u2003", "\x1f", "\x1f \xa0\t"])
def test_unicode_whitespace_between_tokens(sep):
    m = _special_matrix(6)
    header, *rows = format_matrix(m).splitlines()
    text = "\n".join([header, *(row.replace(" ", sep) for row in rows)])
    assert np.array_equal(_bits(parse_matrix(text)), _bits(m))


@pytest.mark.parametrize("end", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\x0b\x0c"])
def test_unicode_line_ends_between_rows(end):
    m = _special_matrix(6)
    text = format_matrix(m)
    assert np.array_equal(_bits(parse_matrix(text.replace("\n", end))), _bits(m))


# (text, line, token): rows the character test hands to the token regex, and the
# error each raised before it existed
_FOREIGN = [
    ("1 2\n1 2j\n", 2, "2j"),
    ("1 2\n1 2J\n", 2, "2J"),
    ("1 2\n(1) 2\n", 2, "(1)"),
    ("1 2\n1 1_0\n", 2, "1_0"),
    ("1 2\ninf 1\n", 2, "inf"),
    ("1 2\n1 -nan\n", 2, "-nan"),
    ("1 2\n1 infinityi\n", 2, "infinityi"),
    ("2 2\n1 2\n3 4\u00e9\n", 3, "4\u00e9"),
    ("1 2\n1\xa0x\n", 2, "x"),
    ("1 2\n1 e5\n", 2, "e5"),
    ("1 2\n1 1e\n", 2, "1e"),
    ("1 2\n. 1\n", 2, "."),
    ("1 2\n1 +-1\n", 2, "+-1"),
    ("1 2\n1 1+2\n", 2, "1+2"),
    ("1 2\n1 ii\n", 2, "ii"),
    ("1 3\n1 2i+1 -\n", 2, "2i+1"),
]


@pytest.mark.parametrize("text,line,token", _FOREIGN)
def test_rows_off_the_fast_path_name_the_bad_token(text, line, token):
    with pytest.raises(MatrixFormatError) as info:
        parse_matrix(text)
    assert (info.value.line, info.value.reason) == (line, f"bad scalar token {token!r}")
