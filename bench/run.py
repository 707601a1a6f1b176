"""Closed-loop benchmark of kronquot: one workload per process, one client.

    python3 bench/run.py --workload {cli-files,library-dense,law-checks}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src/``. The workload's ops are generated from ``--seed``, timed one
at a time and each output is checked. The loop runs whole balanced
rounds (see workloads.py) until ``--seconds`` have passed and at least
100 ops are done.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
op twice on the same inputs, once untraced and once with every layer
traced, reports the per-layer metrics and writes the spans to
``.bench_traces/``. Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_OPS = 100          # so that at least 10 samples lie beyond p90
SETUP_LAUNCHES = 11    # setup_s is the median of this many CLI launches

# Speed correction. The machine's speed drifts by up to ~1.7x over minutes
# while other tenants run, which swamps any program change. A fixed
# reference kernel that runs no kronquot code is timed every
# REFERENCE_EVERY_S; each op's time is scaled by REFERENCE_NS over the
# median reference time within REFERENCE_WINDOW_S of the op.
REFERENCE_EVERY_S = 0.2
REFERENCE_WINDOW_S = 3.0
REFERENCE_NS = 2_000_000  # nominal reference time that corrected timings are scaled to
_REF_RNG = np.random.default_rng(0)
_REF_VALUES = [complex(x, y) for x, y in _REF_RNG.uniform(-1, 1, (300, 2))]
_REF_MATRIX = _REF_RNG.uniform(-1, 1, (4, 4))


def import_kronquot():
    init = os.path.join(SRC, "kronquot", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: {init} not found; run from the root of a kronquot checkout")
    sys.path.insert(0, SRC)
    import kronquot
    import kronquot.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.realpath(kronquot.__file__) != os.path.realpath(init):
        sys.exit(f"bench: imported kronquot from {kronquot.__file__}, expected {init}")
    return kronquot


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def measure_setup(workdir: str) -> float:
    """Median wall time of a fresh ``python -m kronquot kron`` on two 1x1 files."""
    a, b, out = (os.path.join(workdir, name) for name in ("s_a.mat", "s_b.mat", "s_out.mat"))
    for path, value in ((a, "2"), (b, "3")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"1 1\n{value}\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "kronquot", "kron", a, b, "-o", out]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(perf_counter() - start)
        with open(out, encoding="utf-8") as fh:
            result = fh.read()
        if proc.returncode != 0 or result.split() != ["1", "1", "6"]:
            sys.exit(f"bench: set-up CLI launch failed ({proc.returncode}): {proc.stderr}")
        os.remove(out)
    return statistics.median(times)


def timed(call, check) -> tuple[int, bool]:
    """Time one prepared op; returns (duration_ns, output correct)."""
    start = perf_counter_ns()
    try:
        result = call()
    except Exception:  # a raised error is a wrong result, counted by the caller
        return perf_counter_ns() - start, False
    duration = perf_counter_ns() - start
    return duration, bool(check(result))


def run_op(workload, op) -> tuple[int, bool]:
    """Make the op's inputs (untimed), then time it."""
    return timed(*workload.prepare(op))


def reference_ns() -> int:
    """Time the reference kernel: text formatting and parsing, then small numpy calls."""
    start = perf_counter_ns()
    text = " ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in _REF_VALUES)
    [complex(token) for token in text.split()]
    for _ in range(300):
        np.abs(_REF_MATRIX).sum()
    return perf_counter_ns() - start


def closed_loop(workload, rng, seconds: float):
    """Run whole rounds until ``seconds`` have passed and MIN_OPS ops are done.

    Returns the ops, their (end_time, duration_ns, correct) records and the
    (time, reference_ns) samples taken along the way.
    """
    ops, records, refs = [], [], []
    next_ref = 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(ops) < MIN_OPS:
        for op in workload.round(rng):
            if perf_counter() >= next_ref:
                refs.append((perf_counter(), reference_ns()))
                next_ref = perf_counter() + REFERENCE_EVERY_S
            ops.append(op)
            duration, ok = run_op(workload, op)
            records.append((perf_counter(), duration, ok))
    refs.append((perf_counter(), reference_ns()))
    return ops, records, refs


def corrected_ms(records, refs) -> list[float]:
    """Op times scaled to the nominal machine speed measured by the reference kernel."""
    times = [t for t, _ in refs]
    out = []
    for end, duration, _ in records:
        lo = max(bisect.bisect_left(times, end - REFERENCE_WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(times, end + REFERENCE_WINDOW_S)
        speed = statistics.median(ns for _, ns in refs[lo:hi])
        out.append(duration * REFERENCE_NS / speed / 1e6)
    return out


def tally(ops, oks) -> dict:
    """Failures of ordinary ops, and separately of ops on a 2**e-scaled divisor."""
    scaled = [ok for op, ok in zip(ops, oks) if op.scale_exp is not None]
    plain = [ok for op, ok in zip(ops, oks) if op.scale_exp is None]
    return {"attempted": len(ops), "failed": plain.count(False),
            "scaled_ops": len(scaled), "scaled_defects": scaled.count(False)}


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def latency_metrics(durations_ms, unit: str) -> dict:
    return {
        "ops_per_s": (len(durations_ms) / (sum(durations_ms) / 1e3), f"ops/{unit}s"),
        "op_p50_ms": (statistics.median(durations_ms), f"{unit}ms"),
        "op_p90_ms": (p90(durations_ms), f"{unit}ms"),
    }


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "entries_per_s": "1/s",
                   "bytes_read": "B", "bytes_written": "B", "bytes_computed": "B",
                   "flops_computed": "flop", "errors": "count", "trials": "count",
                   "svd_calls_per_trial": "count", "overhead_ratio": "ratio",
                   "scaled_ops": "count", "scaled_defects": "count"}


def traced_run(workload, kq, rng, seconds: float, trace_path: str):
    """Run each op twice on the same inputs, untraced and traced, in alternating order."""
    from tracing import Tracer, TraceError

    tracer = Tracer()
    tracer.install()
    ops, records = [], {False: [], True: []}
    deadline = perf_counter() + seconds
    try:
        while perf_counter() < deadline or len(ops) < MIN_OPS:
            for op in workload.round(rng):
                tracer.op = len(ops)
                call, check = workload.prepare(op)
                for traced in ((True, False) if len(ops) % 2 else (False, True)):
                    if traced:
                        tracer.enable()
                    records[traced].append(timed(call, check))
                    tracer.disable()
                ops.append(op)
    finally:
        tracer.disable()
    tracer.write(trace_path)
    layers = tracer.layer_metrics(kq.KronError)
    silent = [name for name in workload.expected_layers if layers[f"{name}.calls"] == 0]
    if silent:
        raise TraceError(f"{workload.name}: no calls recorded for {', '.join(silent)}; "
                         "a traced name is no longer on the call path")
    plain, traced = records[False], records[True]
    counts = tally(ops, [a and b for (_, a), (_, b) in zip(plain, traced)])
    layers["trace.overhead_ratio"] = sum(ns for ns, _ in traced) / sum(ns for ns, _ in plain)
    layers["library.scaled_ops"] = counts["scaled_ops"]
    layers["library.scaled_defects"] = counts["scaled_defects"]
    return counts, layers


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kq = import_kronquot()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    print(f"env {json.dumps(env)}")
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](kq, workdir)
        rng = np.random.default_rng(args.seed)
        warm_ok = all(ok for _, ok in (run_op(workload, op) for op in workload.warmups(rng)))
        setup_s = None if args.trace else measure_setup(workdir)
        if args.trace:
            trace_path = os.path.join(ROOT, ".bench_traces",
                                      f"{args.workload}-seed{args.seed}.csv.gz")
            counts, layers = traced_run(workload, kq, rng, args.seconds, trace_path)
            metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
            total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            for name, value in layers.items():
                if name.endswith(".self_s") and value:
                    print(f"  self-time share {name[:-7]:26s} {value / total_self:7.1%}")
        else:
            ops, records, refs = closed_loop(workload, rng, args.seconds)
            counts = tally(ops, [ok for _, _, ok in records])
            corrected = corrected_ms(records, refs)
            metrics = {"setup_s": (setup_s, "s"), **latency_metrics(corrected, "ref-"),
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                       / 1024, "MiB")}
            raw = latency_metrics([ns / 1e6 for _, ns, _ in records], "")
            beyond = sum(ms > metrics["op_p90_ms"][0] for ms in corrected)
            print(f"ops={len(ops)} samples_beyond_p90={beyond} "
                  f"reference_ms_median={statistics.median(ns for _, ns in refs) / 1e6:.4g} "
                  f"(nominal {REFERENCE_NS / 1e6:g})")
            for name, (value, unit) in raw.items():
                print(f"{args.workload} uncorrected {name} {value:.6g} {unit}")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} error_rate {counts['failed'] / counts['attempted']:.6g} ratio "
          f"({counts['failed']}/{counts['attempted']} ops)")
    if counts["scaled_ops"]:
        print(f"{args.workload} scaled_divisor_defect_rate "
              f"{counts['scaled_defects'] / counts['scaled_ops']:.6g} ratio "
              f"({counts['scaled_defects']}/{counts['scaled_ops']} ops with a 2**e divisor; "
              "not counted in failed)")
    print(json.dumps({
        "correct": warm_ok and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
