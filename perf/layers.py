"""Per-layer timings of kronquot's small-input layers, written to BENCH_layers.json.

    python3 perf/layers.py [--sizes 1,2,3,4,16,32] [--repeats 21]
                           [--src DIR] [--out BENCH_layers.json]
    python3 perf/layers.py --compare OLD_SRC NEW_SRC [--sizes ...] [--repeats ...]

Times ``realize`` under each built-in scheme, ``svd`` and ``kron`` on seeded
random complex factors: k x k and k x (k+1) for k <= 4 (the trace scheme
takes square ones only), k x k above that; ``kron`` multiplies a factor by
its transpose. The other layers run whatever the sizes. For each k in
``DIVIDEND_SIZES``, with A a k x k factor, M a k^2 x k^2 random dividend
and shape (k, k, k, k), four layers time one call on the same operands:
``remainder("frobenius", A, M, shape)``, ``pfp(A, M)``,
``left_quotient("frobenius", A, M, shape)`` and
``right_quotient("frobenius", M, A, shape)``; for k in ``LINEAR_SIZES``,
``left_quotient.linear`` times ``left_quotient`` on them under the linear
scheme whose family puts frobenius's Q(A) on every diagonal component
(u, v, u, v), the frobenius quotient through the general linear path, which
reads and checks k^2 components per call. For k in ``FILE_SIZES``,
``matfile.parse`` times ``parse_matrix`` of M's text and ``matfile.format``
times ``format_matrix(M)``. ``check`` times one call of each public law
check under frobenius (``CHECK_TRIALS`` trials at seed 42, ``max_dim`` 3):
Q1, Wcond, Rcond and PROJ on the unit basis; and Q1 under operator at the
scale of the benchmark's law checks, 100 trials at seed 42 and ``max_dim``
4, where a cost paid once per check weighs as it does there.
A timed batch is enough calls to dwarf the clock's resolution; each repeat
times every (layer, case) once, in one fixed order.
The file records each case's median and quartiles of the per-call time
over the repeats, in microseconds, with the machine and the build it ran
on: the commit of ``--src`` and whether that directory differs from it.

All the timing runs in this one process. Where the platform lets a process
choose its CPUs, the harness first pins itself to the lowest CPU it may use,
before numpy is imported, so OpenBLAS sizes its pool to that one CPU. Each
tree's ``kronquot`` is then loaded from its directory as a package of its
own, named ``kronquot-0``, ``kronquot-1`` and so on: no import statement can
name it, so it cannot meet an installed kronquot, and the package's relative
imports stay inside that tree. ``--compare`` times the two trees in lockstep:
for every repeat and case, both trees time the same batch one right after
the other, the one that goes first alternating. So a drift in the machine's
speed reaches both trees alike. It prints each case's ratio of medians, NEW
over OLD, and flags a move only where the two interquartile ranges do not
overlap.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMES = ("leopardi", "frobenius", "operator", "trace")
SMALL = 4             # sizes up to this one also run a k x (k+1) case
MIN_BATCH_S = 0.002   # each timed batch lasts at least this long
CHECK_TRIALS = 8      # trials per check in the check layer
DIVIDEND_SIZES = (4, 16, 32)  # factor sizes k of the layers on a k^2 x k^2 dividend
LINEAR_SIZES = (4, 16)        # those of them the linear left_quotient layer runs at
FILE_SIZES = (4, 16)          # and those the matfile parse and format layers run at


# -- one tree: its cases and their timing -------------------------------

def blas_threads(np) -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded; None if not found."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cases(kq, np, sizes: list[int]) -> list[tuple[str, str, object]]:
    """Every (layer, case, zero-argument call), in the order a repeat runs them."""
    rng = np.random.default_rng(0)

    def factor(rows, cols):
        return kq.Matrix.from_array(rng.uniform(-1, 1, (rows, cols))
                                    + 1j * rng.uniform(-1, 1, (rows, cols)))

    shapes = [(k, k) for k in sizes] + [(k, k + 1) for k in sizes if k <= SMALL]
    factors = {f"{r}x{c}": factor(r, c) for r, c in shapes}
    out = []
    for scheme in SCHEMES:
        out += [(f"realize.{scheme}", case, lambda a=a, scheme=scheme: kq.realize(scheme, a))
                for case, a in factors.items() if scheme != "trace" or a.rows == a.cols]
    out += [("svd", case, lambda a=a: kq.svd(a)) for case, a in factors.items()]
    out += [("kron", case, lambda a=a: kq.kron(a, a.transpose()))
            for case, a in factors.items()]
    dividends = {f"{k}x{k}": (factor(k, k), factor(k * k, k * k), kq.FactorShape(k, k, k, k))
                 for k in DIVIDEND_SIZES}
    on_dividends = {
        "remainder": lambda a, m, shape: kq.remainder("frobenius", a, m, shape),
        "pfp": lambda a, m, shape: kq.pfp(a, m),
        "left_quotient": lambda a, m, shape: kq.left_quotient("frobenius", a, m, shape),
        "right_quotient": lambda a, m, shape: kq.right_quotient("frobenius", m, a, shape)}
    for layer, call in on_dividends.items():
        out += [(layer, case, partial(call, *operands)) for case, operands in dividends.items()]
    frobenius = kq.realization_for("frobenius")

    def diagonal(a, s, t):
        q = frobenius.q_of(a)
        return {(u, v, u, v): q for u in range(1, s + 1) for v in range(1, t + 1)}

    linear = kq.QuotientScheme.linear(diagonal)
    out += [("left_quotient.linear", f"{k}x{k}", partial(kq.left_quotient, linear,
                                                       *dividends[f"{k}x{k}"]))
            for k in LINEAR_SIZES]
    for k in FILE_SIZES:
        m = dividends[f"{k}x{k}"][1]
        out += [("matfile.parse", f"{k}x{k}", partial(kq.parse_matrix, kq.format_matrix(m))),
                ("matfile.format", f"{k}x{k}", partial(kq.format_matrix, m))]
    unit_basis = [kq.Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
    checks = {"Q1": lambda: kq.check_axiom("Q1", "frobenius", CHECK_TRIALS, 42, 3),
              "Wcond": lambda: kq.check_weight_conditions(kq.frobenius_weights,
                                                          CHECK_TRIALS, 42, 3),
              "Rcond": lambda: kq.check_realization_conditions("frobenius", CHECK_TRIALS,
                                                               42, 3),
              "PROJ": lambda: kq.check_projection(unit_basis, "frobenius", CHECK_TRIALS,
                                                  42, 3),
              "Q1-operator-100": lambda: kq.check_axiom("Q1", "operator", 100, 42, 4)}
    return out + [("check", case, call) for case, call in checks.items()]


def timed(call, number: int) -> float:
    """Seconds per call over one batch of ``number`` calls."""
    start = perf_counter()
    for _ in range(number):
        call()
    return (perf_counter() - start) / number


def batch_size(call) -> int:
    """Calls per timed batch: enough for the batch to last MIN_BATCH_S."""
    call()  # warm up: lazy imports and first-call set-up are not timed
    number = 1
    while timed(call, number) * number < MIN_BATCH_S:
        number *= 2
    return number


def load(src: str, index: int):
    """The kronquot package in the ``src/`` directory ``src``, loaded as ``kronquot-INDEX``."""
    name, path = f"kronquot-{index}", os.path.join(src, "kronquot")
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # before it runs, so its relative imports find it
    spec.loader.exec_module(package)
    return package


# -- timing run: trees in lockstep ----------------------------------------

def measure(srcs: list[str], sizes: list[int], repeats: int):
    """Every case timed under each tree in ``srcs``, in lockstep: the (layer, case)
    list, the environment, each case's calls per batch and, per tree, each case's
    per-call microseconds over the repeats."""
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # before numpy starts OpenBLAS's threads
    import numpy as np

    trees = [cases(load(src, index), np, sizes) for index, src in enumerate(srcs)]
    keys = [(layer, case) for layer, case, _ in trees[0]]
    if any([(layer, case) for layer, case, _ in calls] != keys for calls in trees):
        sys.exit("layers: the trees time different cases")
    batches = [[batch_size(call) for _, _, call in calls] for calls in trees]
    numbers = [max(column) for column in zip(*batches)]
    samples = [[[] for _ in numbers] for _ in trees]
    for rep in range(repeats):
        for index, number in enumerate(numbers):
            order = range(len(trees))
            for t in (order if (rep + index) % 2 == 0 else reversed(order)):
                samples[t][index].append(timed(trees[t][index][2], number) * 1e6)
    env = {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": blas_threads(np),
           "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine()}
    return keys, env, numbers, samples


def summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else (times[0],) * 3)
    return {"median_us": median, "q1_us": q1, "q3_us": q3}


def git_state(src: str) -> tuple[str | None, bool | None]:
    """The commit checked out at ``src`` and whether ``src`` differs from it."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True,
                                  timeout=30)
        except OSError:
            return None
        return proc.stdout if proc.returncode == 0 else None

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", ".")
    if head is None or status is None:
        return None, None
    return head.strip(), bool(status.strip())


def run(src: str, sizes: list[int], repeats: int, out_path: str) -> None:
    keys, env, numbers, (samples,) = measure([src], sizes, repeats)
    env["git_head"], env["src_dirty"] = git_state(src)
    layers: dict[str, dict[str, dict[str, float]]] = {}
    for (layer, case), number, times in zip(keys, numbers, samples):
        layers.setdefault(layer, {})[case] = {**summary(times), "calls_per_batch": number}
    report = {"harness": "perf/layers.py", "environment": env, "sizes": sizes,
              "repeats": repeats, "layers": layers}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def move(old: dict[str, float], new: dict[str, float]) -> str:
    """"faster" or "slower" where the interquartile ranges do not overlap, else ""."""
    if new["q3_us"] < old["q1_us"]:
        return "faster"
    if new["q1_us"] > old["q3_us"]:
        return "slower"
    return ""


def compare(old_src: str, new_src: str, sizes: list[int], repeats: int) -> list[str]:
    """One line per case: both medians, NEW/OLD and the flag of :func:`move`."""
    keys, _, _, (old, new) = measure([old_src, new_src], sizes, repeats)
    lines = [f"{'layer':20s} {'case':6s} {'old us':>9s} {'new us':>9s} {'ratio':>6s}"]
    for (layer, case), a, b in zip(keys, map(summary, old), map(summary, new)):
        lines.append(f"{layer:20s} {case:6s} {a['median_us']:9.1f} {b['median_us']:9.1f} "
                     f"{b['median_us'] / a['median_us']:6.3f} {move(a, b)}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1,2,3,4,16,32",
                        help="comma-separated factor sizes k")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory to import kronquot from")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    parser.add_argument("--compare", nargs=2, metavar=("OLD_SRC", "NEW_SRC"),
                        help="time two src/ directories in lockstep and print the ratios")
    args = parser.parse_args(argv)
    try:
        sizes = [int(k) for k in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes takes comma-separated integers, got {args.sizes!r}")
    if args.repeats < 1 or not sizes or min(sizes) < 1:
        parser.error("--repeats and every size must be positive")
    if args.compare:
        old, new = (os.path.abspath(src) for src in args.compare)
        print("\n".join(compare(old, new, sizes, args.repeats)))
    else:
        run(os.path.abspath(args.src), sizes, args.repeats, args.out)
        print(f"layers: wrote {args.out}")


if __name__ == "__main__":
    main()
