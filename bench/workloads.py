"""The three benchmark workloads: seeded op generators, the timed call, its check.

A workload hands out ops one round at a time. Each op is a small record
(kind, scheme, sizes, a data seed); its inputs are generated from that
record just before the op is timed and dropped right after it, so two
runs with the same ``--seed`` see the same inputs and the benchmark never
holds a pool of prepared inputs.

Rounds are balanced so that a run's total work does not depend on the
seed: sizes come in 2^4 fold-over blocks (every vertex of the box spanned
by a draw ``x`` and its mirror ``lo + hi - x``), so any cost that is
multilinear in ``m, n, s, t`` -- the dividend area, the factor areas --
sums to the same value in every block, while each op's sizes are still
uniform on ``lo..hi``. ``law-checks`` pairs trial counts the same way
(``x`` and ``350 - x``). The draws themselves are stratified (each value
once per pass, in seeded order), so that the latency percentiles of a
run depend little on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os

import numpy as np

SCHEMES = ("leopardi", "frobenius", "operator", "trace")
AXIOMS = ("Q1", "Q2a", "Q2b", "Q3", "Q5R")

# Tolerances fixed before any run.
QUOT_RTOL = 1e-9       # quot/rquot of an exact Kronecker product vs the known factor
PRODUCT_RTOL = 1e-12   # kron and pfp vs the plain-numpy reference
# rem: the CLI's own divisor test, residual <= REM_ATOL + REM_RTOL * ||M||_F
REM_RTOL, REM_ATOL = 1e-10, 1e-12

# The law-check cells that tests/test_acceptance.py pins as holding.
PINNED_HOLDS = frozenset([(axiom, scheme) for axiom in ("Q1", "Q2a", "Q2b", "Q3")
                          for scheme in ("leopardi", "frobenius")] + [("Q5R", "trace")])

DENSE_KINDS = ("quot", "rquot", "rem", "kron", "pfp")
QUOTIENT_KINDS = ("quot", "rquot", "rem")  # each takes the four schemes in turn


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str                       # quot, rquot, rem, kron, pfp or check
    scheme: str | None
    seed: int                       # data seed (check: the check_axiom seed)
    dims: tuple[int, int, int, int] = (1, 1, 1, 1)  # m, n, s, t
    scale_exp: int | None = None    # divisor scaled by 2**scale_exp
    axiom: str | None = None
    trials: int = 0


def _random(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (rows, cols)) + 1j * rng.uniform(-1.0, 1.0, (rows, cols))


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """x * 2**e, exact while the result stays in the normal range."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def _norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    return got.shape == want.shape and _norm(got - want) <= rtol * _norm(want)


def _divides(rem: np.ndarray, dividend: np.ndarray, e: int) -> bool:
    # compare at unit scale; multiplying both by 2**-e leaves the ratio exact
    rem, dividend = _ldexp(rem, -e), _ldexp(dividend, -e)
    return _norm(rem) <= REM_ATOL + REM_RTOL * _norm(dividend)


def _pfp_reference(a: np.ndarray, big: np.ndarray) -> np.ndarray:
    m, n = a.shape
    s, t = big.shape[0] // m, big.shape[1] // n
    return np.einsum("jk,jukv->uv", a, big.reshape(m, s, n, t))


class _Strata:
    """Draws from 0..n-1 per key: every value once per pass, each pass in seeded order."""

    def __init__(self, n: int):
        self.n = n
        self._left: dict = {}

    def draw(self, rng: np.random.Generator, key) -> int:
        left = self._left.get(key)
        if not left:
            left = self._left[key] = [int(i) for i in rng.permutation(self.n)]
        return left.pop()


def _foldover(base: list[int], lo: int, hi: int) -> list[tuple[int, ...]]:
    return [tuple(lo + hi - base[i] if mask >> i & 1 else base[i] for i in range(4))
            for mask in range(16)]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _dense_round(rng: np.random.Generator, strata: _Strata, lo: int, hi: int,
                 scaled_per_block: int) -> list[Op]:
    """One 16-op fold-over block per kind, shuffled together."""
    ops = []
    for kind in DENSE_KINDS:
        base = [lo + strata.draw(rng, (kind, dim)) for dim in range(4)]
        quotient = kind in QUOTIENT_KINDS
        schemes = [SCHEMES[i] for i in rng.permutation(np.arange(16) % 4)] if quotient \
            else [None] * 16
        scaled = set()
        if quotient and scaled_per_block:
            scaled = {int(v) for v in rng.choice(16, scaled_per_block, replace=False)}
        for vertex, (m, n, s, t) in enumerate(_foldover(base, lo, hi)):
            scheme = schemes[vertex]
            if scheme == "trace":  # the trace rule needs a square divisor
                if kind == "rquot":
                    t = s
                else:
                    n = m
            e = int(rng.integers(-1000, 1001)) if vertex in scaled else None
            ops.append(Op(kind, scheme, _seed(rng), (m, n, s, t), scale_exp=e))
    return [ops[i] for i in rng.permutation(len(ops))]


def _dense_warmups(rng: np.random.Generator, hi: int) -> list[Op]:
    """One op per kind at the largest sizes, so the peak working set is reached."""
    kinds = [("quot", "operator"), ("rquot", "frobenius"), ("rem", "frobenius"),
             ("kron", None), ("pfp", None)]
    return [Op(kind, scheme, _seed(rng), (hi, hi, hi, hi)) for kind, scheme in kinds]


class CliFiles:
    """In-process ``kronquot.cli.main`` calls on matrix files written before timing."""

    name = "cli-files"
    lo, hi = 3, 16
    expected_layers = ("cli.main", "matfile.read", "matfile.write", "matfile.parse",
                       "matfile.format", "matrix.kron", "pfp.pfp", "quotients.left_quotient",
                       "quotients.right_quotient", "quotients.remainder", "singular.svd")

    def __init__(self, kq, workdir: str):
        self.kq = kq
        self.workdir = workdir
        self.strata = _Strata(self.hi - self.lo + 1)

    def round(self, rng):
        return _dense_round(rng, self.strata, self.lo, self.hi, 0)

    def warmups(self, rng):
        return _dense_warmups(rng, self.hi)

    def _write(self, name: str, x: np.ndarray) -> str:
        path = os.path.join(self.workdir, name)
        lines = [f"{x.shape[0]} {x.shape[1]}"]
        lines.extend(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in x.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    @staticmethod
    def _read(path: str) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
        rows, cols = (int(v) for v in lines[0].split())
        out = np.array([complex(tok.replace("i", "j")) for ln in lines[1:] for tok in ln.split()])
        return out.reshape(rows, cols)

    def prepare(self, op: Op):
        rng = np.random.default_rng(op.seed)
        m, n, s, t = op.dims
        a, b = _random(rng, m, n), _random(rng, s, t)
        out = os.path.join(self.workdir, "out.mat")
        scheme_shape = ["--scheme", op.scheme, "--shape", f"{m},{n},{s},{t}"]
        if op.kind == "kron":
            argv = ["kron", self._write("a.mat", a), self._write("b.mat", b)]
            want = np.kron(a, b)
        elif op.kind == "pfp":
            big = _random(rng, m * s, n * t)
            argv = ["pfp", self._write("a.mat", a), self._write("m.mat", big)]
            want = _pfp_reference(a, big)
        elif op.kind == "quot":
            argv = ["quot", *scheme_shape, self._write("a.mat", a),
                    self._write("m.mat", np.kron(a, b))]
            want = b
        elif op.kind == "rquot":
            argv = ["rquot", *scheme_shape, self._write("m.mat", np.kron(a, b)),
                    self._write("b.mat", b)]
            want = a
        else:  # rem
            argv = ["rem", *scheme_shape, self._write("a.mat", a),
                    self._write("m.mat", np.kron(a, b))]
            want = None
        argv += ["-o", out]
        rtol = PRODUCT_RTOL if op.kind in ("kron", "pfp") else QUOT_RTOL
        kq = self.kq

        def call():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = kq.cli.main(argv)
            return code, stdout.getvalue()

        def check(result) -> bool:
            code, stdout = result
            if code != 0:
                return False
            if want is None:
                return "divisor=true" in stdout.split()
            return _close(self._read(out), want, rtol)

        return call, check


class LibraryDense:
    """Library calls on ``Matrix`` values; ``matfile`` does no work here."""

    name = "library-dense"
    lo, hi = 8, 32
    # one in eight quotient ops gets a divisor scaled by 2**e, e in -1000..1000
    scaled_per_block = 2
    expected_layers = ("matrix.kron", "pfp.pfp", "quotients.left_quotient",
                       "quotients.right_quotient", "quotients.remainder", "singular.svd")

    def __init__(self, kq, workdir: str):
        self.kq = kq
        self.strata = _Strata(self.hi - self.lo + 1)

    def round(self, rng):
        return _dense_round(rng, self.strata, self.lo, self.hi, self.scaled_per_block)

    def warmups(self, rng):
        return _dense_warmups(rng, self.hi)

    def prepare(self, op: Op):
        kq = self.kq
        rng = np.random.default_rng(op.seed)
        m, n, s, t = op.dims
        a, b = _random(rng, m, n), _random(rng, s, t)
        e = op.scale_exp or 0
        shape = kq.FactorShape(m, n, s, t)
        scheme = getattr(kq.QuotientScheme, op.scheme)() if op.scheme else None
        mat = kq.Matrix.from_array
        if op.kind == "kron":
            a_m, b_m, want = mat(a), mat(b), np.kron(a, b)

            def call():
                return kq.kron(a_m, b_m)
        elif op.kind == "pfp":
            big = _random(rng, m * s, n * t)
            a_m, big_m, want = mat(a), mat(big), _pfp_reference(a, big)

            def call():
                return kq.pfp(a_m, big_m)
        elif op.kind == "rquot":
            b = _ldexp(b, e)
            dividend, b_m, want = mat(np.kron(a, b)), mat(b), a

            def call():
                return kq.right_quotient(scheme, dividend, b_m, shape)
        else:  # quot, rem
            a = _ldexp(a, e)
            dividend, a_m = mat(np.kron(a, b)), mat(a)
            want = b
            name = "left_quotient" if op.kind == "quot" else "remainder"

            def call():
                return getattr(kq, name)(scheme, a_m, dividend, shape)

        rtol = PRODUCT_RTOL if op.kind in ("kron", "pfp") else QUOT_RTOL

        def check(result) -> bool:
            got = result.to_array()
            if op.kind == "rem":
                return _divides(got, dividend.to_array(), e)
            return _close(got, want, rtol)

        return call, check


class LawChecks:
    """``check_axiom`` over every (axiom, built-in scheme) cell, divisors at most 4x4."""

    name = "law-checks"
    max_dim = 4
    expected_layers = ("axioms.check_axiom", "quotients.left_quotient", "pfp.pfp",
                       "singular.svd", "matrix.kron")

    def __init__(self, kq, workdir: str):
        self.kq = kq
        self.strata = _Strata(5)

    def round(self, rng):
        """Every cell twice, with trial counts x and 350 - x, x in 50..175."""
        ops = []
        for axiom in AXIOMS:
            for scheme in SCHEMES:
                stratum = self.strata.draw(rng, (axiom, scheme))
                x = int(rng.integers(50 + 126 * stratum // 5, 50 + 126 * (stratum + 1) // 5))
                for trials in (x, 350 - x):
                    ops.append(Op("check", scheme, _seed(rng), axiom=axiom, trials=trials))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmups(self, rng):
        return [Op("check", scheme, _seed(rng), axiom=axiom, trials=10)
                for axiom in AXIOMS for scheme in SCHEMES]

    def prepare(self, op: Op):
        kq = self.kq

        def call():
            return kq.check_axiom(op.axiom, op.scheme, op.trials, op.seed, self.max_dim)

        def check(report) -> bool:
            consistent = report.verdict == ("holds" if report.max_residual <= kq.TOLERANCE
                                            else "fails")
            witnessed = report.holds or report.counterexample is not None
            pinned = (op.axiom, op.scheme) not in PINNED_HOLDS or report.holds
            return ((report.axiom, report.trials, report.seed) == (op.axiom, op.trials, op.seed)
                    and consistent and witnessed and pinned)

        return call, check


WORKLOADS = {w.name: w for w in (CliFiles, LibraryDense, LawChecks)}
