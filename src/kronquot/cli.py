"""Command-line front end.

Subcommands::

    kron  A.mat B.mat [-o M.mat]                 Kronecker product
    quot  --scheme S --shape m,n,s,t A.mat M.mat [-o B.mat]
    rquot --scheme S --shape m,n,s,t M.mat B.mat [-o A.mat]
    rem   --scheme S --shape m,n,s,t A.mat M.mat [-o R.mat]
    pfp   A.mat M.mat [-o C.mat]
    check --axiom {Q1,Q2a,Q2b,Q3,Q5R,Wcond,Rcond,PROJ} --scheme S
          [--trials N] [--seed S] [--dims D] [--json]
    demo  [--json]

Exit codes: 0 success / axiom holds; 1 axiom fails; 2 usage, parse or
shape errors; 3 numerical failure (no convergence).
"""

from __future__ import annotations

import argparse
import sys

from . import matfile
from .axioms import _CHECKED_LAWS, _LAWS, _run, demo_counterexamples
from .errors import ConvergenceError, KronError, UnsupportedInputError
from .matrix import FactorShape, Matrix, kron
from .pfp import pfp
from .quotients import (
    BUILTIN_SCHEMES,
    _remainder_verdict,
    left_quotient,
    remainder,
    right_quotient,
)


def _shape_arg(text: str) -> FactorShape:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"--shape needs m,n,s,t, got {text!r}")
    try:
        values = [matfile._ascii_int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--shape needs four integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"--shape components must be positive, got {text!r}")
    return FactorShape(*values)


def _digits_arg(text: str) -> int:
    try:
        return matfile._ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a run of ASCII digits, got {text!r}") from None


def _emit(matrix: Matrix, output: str | None, trailer: str | None = None) -> None:
    if output is None:
        sys.stdout.write(matfile.format_matrix(matrix))
        if trailer is not None:
            # keep stdout parseable as a matrix file: trailers become comments
            sys.stdout.write(f"# {trailer}\n")
    else:
        matfile.write_matrix(output, matrix)
        if trailer is not None:
            sys.stdout.write(trailer + "\n")


def _cmd_kron(args) -> int:
    result = kron(matfile.read_matrix(args.a), matfile.read_matrix(args.b))
    _emit(result, args.output)
    return 0


def _cmd_quot(args) -> int:
    result = left_quotient(args.scheme, matfile.read_matrix(args.a),
                           matfile.read_matrix(args.m), args.shape)
    _emit(result, args.output)
    return 0


def _cmd_rquot(args) -> int:
    result = right_quotient(args.scheme, matfile.read_matrix(args.m),
                            matfile.read_matrix(args.b), args.shape)
    _emit(result, args.output)
    return 0


def _cmd_rem(args) -> int:
    m = matfile.read_matrix(args.m)
    rem = remainder(args.scheme, matfile.read_matrix(args.a), m, args.shape)
    divides, residual = _remainder_verdict(rem, m)
    trailer = f"divisor={'true' if divides else 'false'} residual={residual:.17g}"
    _emit(rem, args.output, trailer=trailer)
    return 0


def _cmd_pfp(args) -> int:
    result = pfp(matfile.read_matrix(args.a), matfile.read_matrix(args.m))
    _emit(result, args.output)
    return 0


def _cmd_check(args) -> int:
    report = _run(args.axiom, trials=args.trials, seed=args.seed, max_dim=args.dims,
                  **_LAWS[args.axiom].cli(args.scheme))
    sys.stdout.write(report.to_json() + "\n" if args.json else report.to_text())
    return 0 if report.holds else 1


def _cmd_demo(args) -> int:
    reports = demo_counterexamples()
    if args.json:
        sys.stdout.write("\n".join(report.to_json() for report in reports) + "\n")
    else:
        sys.stdout.write("\n".join(report.to_text() for report in reports))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronquot",
        description="Kronecker products, quotients, remainders and property checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write the result here instead of standard output")

    def add_scheme_shape(p):
        p.add_argument("--scheme", choices=sorted(BUILTIN_SCHEMES), required=True)
        p.add_argument("--shape", type=_shape_arg, required=True, metavar="m,n,s,t",
                       help="block structure: the dividend is (m*s) x (n*t)")

    p = sub.add_parser("kron", help="Kronecker product of two matrix files")
    p.add_argument("a", metavar="A.mat")
    p.add_argument("b", metavar="B.mat")
    add_output(p)
    p.set_defaults(func=_cmd_kron, inputs=("a", "b"))

    p = sub.add_parser("quot", help="left quotient: recover B from A and M ~ kron(A, B)")
    add_scheme_shape(p)
    p.add_argument("a", metavar="A.mat", help="left divisor (m x n)")
    p.add_argument("m", metavar="M.mat", help="dividend ((m*s) x (n*t))")
    add_output(p)
    p.set_defaults(func=_cmd_quot, inputs=("a", "m"))

    p = sub.add_parser("rquot", help="right quotient: recover A from M ~ kron(A, B) and B")
    add_scheme_shape(p)
    p.add_argument("m", metavar="M.mat", help="dividend ((m*s) x (n*t))")
    p.add_argument("b", metavar="B.mat", help="right divisor (s x t)")
    add_output(p)
    p.set_defaults(func=_cmd_rquot, inputs=("m", "b"))

    p = sub.add_parser("rem", help="left remainder M - kron(A, quot); prints divisor=true|false")
    add_scheme_shape(p)
    p.add_argument("a", metavar="A.mat")
    p.add_argument("m", metavar="M.mat")
    add_output(p)
    p.set_defaults(func=_cmd_rem, inputs=("a", "m"))

    p = sub.add_parser("pfp", help="partial Frobenius product of two matrix files")
    p.add_argument("a", metavar="A.mat")
    p.add_argument("m", metavar="M.mat")
    add_output(p)
    p.set_defaults(func=_cmd_pfp, inputs=("a", "m"))

    p = sub.add_parser("check", help="randomized axiom check; exit 0 holds, 1 fails")
    p.add_argument("--axiom", choices=_CHECKED_LAWS, required=True)
    p.add_argument("--scheme", choices=sorted(BUILTIN_SCHEMES), required=True)
    p.add_argument("--trials", type=_digits_arg, default=200)
    p.add_argument("--seed", type=_digits_arg, default=42)
    p.add_argument("--dims", type=_digits_arg, default=4, metavar="D",
                   help="upper bound on every matrix dimension (default 4, max 6)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("demo", help="print the three impossibility demonstrations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo)

    return parser


# built once: parse_args leaves the parser unchanged, so calls share it
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"kronquot: numerical failure: {exc}", file=sys.stderr)
        return 3
    except UnsupportedInputError as exc:
        # the message names the operation and shapes; the files it read are named here
        paths = [getattr(args, name) for name in getattr(args, "inputs", ())]
        where = f" (inputs: {', '.join(paths)})" if paths else ""
        print(f"kronquot: error: {exc}{where}", file=sys.stderr)
        return 2
    except (KronError, OSError) as exc:
        print(f"kronquot: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
