"""Per-layer timings of kronquot's small-input layers, written to BENCH_layers.json.

    python3 perf/layers.py [--sizes 1,2,3,4,16,32] [--repeats 21]
                           [--src DIR] [--out BENCH_layers.json]
    python3 perf/layers.py --compare OLD_SRC NEW_SRC [--sizes ...] [--repeats ...]

Times ``realize`` under each built-in scheme, ``svd`` and ``kron`` on seeded
random complex factors: k x k and k x (k+1) for k <= 4 (the trace scheme
takes square ones only), k x k above that; ``kron`` multiplies a factor by
its transpose. Two layers run whatever the sizes. ``remainder`` times
``remainder("frobenius", A, M, (k, k, k, k))`` for each k in
``REMAINDER_SIZES``, with A a k x k factor and M a k^2 x k^2 random dividend.
``check`` times one call of each public law check under frobenius
(``CHECK_TRIALS`` trials at seed 42, ``max_dim`` 3): Q1, Wcond, Rcond and PROJ
on the unit basis; and Q1 under operator at the scale of the benchmark's law
checks, 100 trials at seed 42 and ``max_dim`` 4, where a cost paid once per
check weighs as it does there.
A timed batch is enough calls to dwarf the clock's resolution; each repeat
times every (layer, case) once, in one fixed order.
The file records each case's median and quartiles of the per-call time
over the repeats, in microseconds, with the machine and the build it ran
on: the commit of ``--src`` and whether that directory differs from it.

The timing runs in a worker process per tree, which imports kronquot from
that tree's ``src/`` and times one batch at a time on request. Where the
platform lets a process choose its CPUs, every worker runs on the lowest
CPU the harness may use, so the trees share one core and its load (and
OpenBLAS sizes its pool to that one CPU). ``--compare`` drives a worker for
each of two trees in lockstep: for every repeat and case, both workers time
the same batch one right after the other, the one that goes first
alternating. So a drift in the machine's speed reaches both trees alike.
It prints each case's ratio of medians, NEW over OLD, and flags a move
only where the two interquartile ranges do not overlap.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMES = ("leopardi", "frobenius", "operator", "trace")
SMALL = 4             # sizes up to this one also run a k x (k+1) case
MIN_BATCH_S = 0.002   # each timed batch lasts at least this long
CHECK_TRIALS = 8      # trials per check in the check layer
REMAINDER_SIZES = (4, 16, 32)  # factor sizes k of the remainder layer


# -- worker: one tree, one batch at a time --------------------------------

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
    for k in REMAINDER_SIZES:
        a, m, shape = factor(k, k), factor(k * k, k * k), kq.FactorShape(k, k, k, k)
        out.append(("remainder", f"{k}x{k}",
                    lambda a=a, m=m, shape=shape: kq.remainder("frobenius", a, m, shape)))
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


def worker(src: str, sizes: list[int], cpu: int | None) -> None:
    """Serve one tree on ``cpu``: announce its cases and environment, then answer each
    request line, ``calibrate`` with every case's batch size and ``INDEX NUMBER`` with
    the microseconds per call of one batch of that case, one JSON line each, until
    stdin closes."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # before numpy starts OpenBLAS's threads
    sys.path.insert(0, src)
    import numpy as np
    import kronquot as kq

    if os.path.realpath(os.path.dirname(kq.__file__)) != os.path.realpath(
            os.path.join(src, "kronquot")):
        sys.exit(f"layers: imported kronquot from {kq.__file__}, expected it under {src}")
    calls = cases(kq, np, sizes)
    env = {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": blas_threads(np),
           "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine()}
    print(json.dumps({"cases": [[layer, case] for layer, case, _ in calls],
                      "environment": env}), flush=True)
    for line in sys.stdin:
        if line.strip() == "calibrate":
            answer = [batch_size(call) for _, _, call in calls]
        else:
            index, number = map(int, line.split())
            answer = timed(calls[index][2], number) * 1e6
        print(json.dumps(answer), flush=True)


# -- timing run: workers in lockstep -----------------------------------

class Worker:
    def __init__(self, src: str, sizes: list[int], cpu: int | None):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", "--src", src,
             "--sizes", ",".join(map(str, sizes))] + ([] if cpu is None else ["--cpu", str(cpu)]),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        self.hello = self.answer()

    def ask(self, request: str):
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self.answer()

    def answer(self):
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"layers: the worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def measure(srcs: list[str], sizes: list[int], repeats: int):
    """Every case timed under each tree in ``srcs``, in lockstep: the (layer, case)
    list, the first worker's environment, each case's calls per batch and, per tree,
    each case's per-call microseconds over the repeats."""
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    workers = [Worker(src, sizes, cpu) for src in srcs]
    try:
        hello = workers[0].hello
        for w in workers:
            if w.hello["cases"] != hello["cases"]:
                sys.exit("layers: the trees time different cases")
        batches = [w.ask("calibrate") for w in workers]
        numbers = [max(column) for column in zip(*batches)]
        samples = [[[] for _ in numbers] for _ in workers]
        for rep in range(repeats):
            for index, number in enumerate(numbers):
                order = range(len(workers))
                for w in (order if (rep + index) % 2 == 0 else reversed(order)):
                    samples[w][index].append(workers[w].ask(f"{index} {number}"))
    finally:
        for w in workers:
            w.close()
    return [tuple(key) for key in hello["cases"]], hello["environment"], numbers, samples


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
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = [int(k) for k in args.sizes.split(",")]
    if args.repeats < 1 or not sizes or min(sizes) < 1:
        parser.error("--repeats and every size must be positive")
    if args.worker:
        worker(os.path.abspath(args.src), sizes, args.cpu)
    elif args.compare:
        old, new = (os.path.abspath(src) for src in args.compare)
        print("\n".join(compare(old, new, sizes, args.repeats)))
    else:
        run(os.path.abspath(args.src), sizes, args.repeats, args.out)
        print(f"layers: wrote {args.out}")


if __name__ == "__main__":
    main()
