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

The five file commands (kron, quot, rquot, rem, pfp) are declared once, in
``_FILE_COMMANDS``, and share one handler; check and demo have their own.

Exit codes: 0 success / axiom holds; 1 axiom fails; 2 usage, parse or
shape errors; 3 numerical failure (no convergence).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

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


class _FileCommand(NamedTuple):
    """A subcommand that reads two matrix files and writes one matrix."""

    help: str
    operands: tuple[tuple[str, str | None], ...]  # (metavar, help) per file, in call order
    scheme_shape: bool                              # whether it takes --scheme and --shape
    call: Callable[..., Matrix]                     # (args, *operands) -> result
    trailer: Callable[..., str] | None = None       # (result, *operands) -> trailer line


def _divisor_trailer(rem: Matrix, a: Matrix, m: Matrix) -> str:
    divides, residual = _remainder_verdict(rem, m)
    return f"divisor={'true' if divides else 'false'} residual={residual:.17g}"


_DIVIDEND = ("M.mat", "dividend ((m*s) x (n*t))")

# Each call names its library function, so the name is looked up when the command
# runs: a wrapper rebound to this module's attribute (a tracer, a test) sees the call.
_FILE_COMMANDS = {
    "kron": _FileCommand("Kronecker product of two matrix files",
                         (("A.mat", None), ("B.mat", None)), False,
                         lambda args, a, b: kron(a, b)),
    "quot": _FileCommand("left quotient: recover B from A and M ~ kron(A, B)",
                         (("A.mat", "left divisor (m x n)"), _DIVIDEND), True,
                         lambda args, a, m: left_quotient(args.scheme, a, m, args.shape)),
    "rquot": _FileCommand("right quotient: recover A from M ~ kron(A, B) and B",
                          (_DIVIDEND, ("B.mat", "right divisor (s x t)")), True,
                          lambda args, m, b: right_quotient(args.scheme, m, b, args.shape)),
    "rem": _FileCommand("left remainder M - kron(A, quot); prints divisor=true|false",
                        (("A.mat", None), ("M.mat", None)), True,
                        lambda args, a, m: remainder(args.scheme, a, m, args.shape),
                        _divisor_trailer),
    "pfp": _FileCommand("partial Frobenius product of two matrix files",
                        (("A.mat", None), ("M.mat", None)), False,
                        lambda args, a, m: pfp(a, m)),
}


def _cmd_file(args) -> int:
    command = _FILE_COMMANDS[args.command]
    operands = [matfile.read_matrix(getattr(args, dest)) for dest in args.inputs]
    result = command.call(args, *operands)
    _emit(result, args.output, command.trailer and command.trailer(result, *operands))
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

    for name, command in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.scheme_shape:
            p.add_argument("--scheme", choices=sorted(BUILTIN_SCHEMES), required=True)
            p.add_argument("--shape", type=_shape_arg, required=True, metavar="m,n,s,t",
                           help="block structure: the dividend is (m*s) x (n*t)")
        # each file's dest is its metavar's first letter, lower-cased: A.mat is args.a
        dests = tuple(metavar[0].lower() for metavar, _ in command.operands)
        for dest, (metavar, text) in zip(dests, command.operands):
            p.add_argument(dest, metavar=metavar, help=text)
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write the result here instead of standard output")
        p.set_defaults(func=_cmd_file, inputs=dests)

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
