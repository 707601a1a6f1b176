"""Span tracing of kronquot's layers, installed from outside the package.

Each traced function is found at its defining module (reached through
``sys.modules``: the package attribute ``kronquot.pfp`` is the
re-exported function, not the submodule) and replaced at every module
attribute in the package that is bound to it, so calls are timed on the
real call path whichever name the caller uses. Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from time import perf_counter_ns

# span name -> (defining module, attribute)
LAYERS = {
    "cli.main": ("kronquot.cli", "main"),
    "matfile.read": ("kronquot.matfile", "read_matrix"),
    "matfile.write": ("kronquot.matfile", "write_matrix"),
    "matfile.parse": ("kronquot.matfile", "parse_matrix"),
    "matfile.format": ("kronquot.matfile", "format_matrix"),
    "matrix.kron": ("kronquot.matrix", "kron"),
    "pfp.pfp": ("kronquot.pfp", "pfp"),
    "quotients.left_quotient": ("kronquot.quotients", "left_quotient"),
    "quotients.right_quotient": ("kronquot.quotients", "right_quotient"),
    "quotients.remainder": ("kronquot.quotients", "remainder"),
    "singular.svd": ("kronquot.singular", "svd"),
    "axioms.check_axiom": ("kronquot.axioms", "check_axiom"),
}

_BYTES = 16  # one complex128 entry


def _entries(x) -> int:
    return x.rows * x.cols


# Work each call does, computed from its arguments and result (not measured).
_WORK = {
    "matfile.read": lambda args, out: {"bytes": os.stat(args[0]).st_size},
    "matfile.write": lambda args, out: {"bytes": os.stat(args[0]).st_size},
    "matfile.parse": lambda args, out: {"entries": _entries(out)},
    "matfile.format": lambda args, out: {"entries": _entries(args[0])},
    "matrix.kron": lambda args, out: {
        "bytes": _BYTES * (_entries(args[0]) + _entries(args[1]) + _entries(out))},
    # every entry of the larger operand is multiplied and accumulated once: 8 real flops
    "pfp.pfp": lambda args, out: {
        "bytes": _BYTES * (_entries(args[0]) + _entries(args[1]) + _entries(out)),
        "flops": 8 * max(_entries(args[0]), _entries(args[1]))},
    "axioms.check_axiom": lambda args, out: {"trials": out.trials},
}


class TraceError(RuntimeError):
    """The traced program no longer has the shape the benchmark expects."""


class Tracer:
    """Collects (name, start, end, parent, op, error, work) spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._sites: list[tuple] = []

    def install(self) -> None:
        """Find every binding of every traced function; raise if one is gone.

        The bindings stay untraced until :meth:`enable`.
        """
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "kronquot" or name.startswith("kronquot."))]
        for span, (module_name, attr) in LAYERS.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(f"cannot trace {span}: {module_name}.{attr} no longer exists")
            wrapper = self._wrap(span, original)
            self._sites.extend((mod, name, original, wrapper) for mod in modules
                               for name, value in vars(mod).items() if value is original)

    def enable(self) -> None:
        for mod, name, _, wrapper in self._sites:
            setattr(mod, name, wrapper)

    def disable(self) -> None:
        for mod, name, original, _ in self._sites:
            setattr(mod, name, original)

    def _wrap(self, span: str, fn):
        spans, stack, work = self.spans, self._stack, _WORK.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op, type(exc), None)
                raise
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (span, start, end, parent, self.op, None,
                            work(args, result) if work else None)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: name,start_ns,end_ns,parent,op,error."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op,error\n")
            for name, start, end, parent, op, error, _ in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op},{error.__name__ if error else ''}\n")

    def layer_metrics(self, kron_error: type) -> dict[str, float]:
        """Per-layer counts and self times; self time excludes direct child spans."""
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        work: dict[str, float] = {}
        errors = 0
        svd_in_checks = 0
        for name, start, end, parent, _, error, extra in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
            if extra:
                for key, value in extra.items():
                    work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
            if (error is not None and issubclass(error, kron_error)
                    and name.startswith("quotients.")
                    and (parent < 0 or not self.spans[parent][0].startswith("quotients."))):
                errors += 1  # counted once, where it leaves the quotients layer
            if name == "singular.svd" and self._inside(parent, "axioms.check_axiom"):
                svd_in_checks += 1

        def rate(key: str, span: str) -> float:
            seconds = self_ns[span] / 1e9
            return work.get(key, 0) / seconds if seconds else 0.0

        trials = work.get("axioms.check_axiom.trials", 0)
        out: dict[str, float] = {}
        for span in LAYERS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_ns[span] / 1e9
        out.update({
            "matfile.parse.entries_per_s": rate("matfile.parse.entries", "matfile.parse"),
            "matfile.format.entries_per_s": rate("matfile.format.entries", "matfile.format"),
            "matfile.bytes_read": work.get("matfile.read.bytes", 0),
            "matfile.bytes_written": work.get("matfile.write.bytes", 0),
            "matrix.kron.bytes_computed": work.get("matrix.kron.bytes", 0),
            "pfp.pfp.bytes_computed": work.get("pfp.pfp.bytes", 0),
            "pfp.pfp.flops_computed": work.get("pfp.pfp.flops", 0),
            "quotients.errors": errors,
            "axioms.trials": trials,
            "axioms.svd_calls_per_trial": svd_in_checks / trials if trials else 0.0,
        })
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] == name:
                return True
            index = span[3]
        return False
