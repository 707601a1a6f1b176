"""The layer harness perf/layers.py: the file a short run writes, and --compare."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "perf" / "layers.py"
LAYERS = {"realize.leopardi", "realize.frobenius", "realize.operator", "realize.trace",
          "svd", "kron", "remainder", "pfp", "left_quotient", "right_quotient",
          "left_quotient.linear", "matfile.parse", "matfile.format", "check"}
# the cases of the layers that run them whatever the sizes: those on a k^2 x k^2
# dividend, the linear left quotient, matfile parse and format, and check
FIXED = {**dict.fromkeys({"remainder", "pfp", "left_quotient", "right_quotient"},
                         {"4x4", "16x16", "32x32"}),
         **dict.fromkeys({"left_quotient.linear", "matfile.parse", "matfile.format"},
                         {"4x4", "16x16"}),
         "check": {"Q1", "Wcond", "Rcond", "PROJ", "Q1-operator-100"}}
STATS = {"median_us", "q1_us", "q3_us", "calls_per_batch"}


def _cases_at_size_1() -> set[tuple[str, str]]:
    """Every (layer, case) a run with ``--sizes 1`` times."""
    return ({(layer, case) for layer in LAYERS - FIXED.keys() for case in ("1x1", "1x2")}
            - {("realize.trace", "1x2")}
            | {(layer, case) for layer, cases in FIXED.items() for case in cases})


def _run(*args: str) -> str:
    proc = subprocess.run([sys.executable, str(HARNESS), *args], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_short_run_writes_finite_positive_timings(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    _run("--sizes", "1,2", "--repeats", "1", "--out", str(out))
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"harness", "environment", "sizes", "repeats", "layers"}
    assert set(report["environment"]) == {"nproc", "cpu", "blas_threads", "python", "numpy",
                                          "machine", "git_head", "src_dirty"}
    assert report["environment"]["nproc"] >= 1
    assert (report["sizes"], report["repeats"]) == ([1, 2], 1)
    assert set(report["layers"]) == LAYERS
    for layer, by_case in report["layers"].items():
        square = {"1x1", "2x2"}
        expected = {"realize.trace": square, **FIXED}.get(layer, square | {"1x2", "2x3"})
        assert set(by_case) == expected
        for stats in by_case.values():
            assert set(stats) == STATS
            assert all(math.isfinite(x) and x > 0 for x in stats.values()), (layer, stats)


def test_compare_times_two_trees_in_lockstep():
    src = str(HARNESS.parent.parent / "src")
    lines = _run("--compare", src, src, "--sizes", "1", "--repeats", "2").splitlines()
    assert lines[0].split() == ["layer", "case", "old", "us", "new", "us", "ratio"]
    assert sorted(tuple(line.split()[:2]) for line in lines[1:]) == sorted(_cases_at_size_1())
    for line in lines[1:]:
        fields = line.split()
        assert all(math.isfinite(float(x)) and float(x) > 0 for x in fields[2:5]), line
        assert fields[5:] in ([], ["faster"], ["slower"]), line


def test_compare_times_each_tree_from_its_own_directory(tmp_path):
    src = HARNESS.parent.parent / "src"
    copy = tmp_path / "copy"
    shutil.copytree(src / "kronquot", copy / "kronquot",
                    ignore=shutil.ignore_patterns("__pycache__"))
    lines = _run("--compare", str(src), str(copy), "--sizes", "1", "--repeats", "1").splitlines()
    assert {tuple(line.split()[:2]) for line in lines[1:]} == _cases_at_size_1()

    broken = tmp_path / "broken"
    shutil.copytree(copy, broken)
    (broken / "kronquot" / "__init__.py").write_text("raise ImportError('broken tree')\n",
                                                      encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HARNESS), "--compare", str(copy), str(broken),
                           "--sizes", "1", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert str(broken / "kronquot") in proc.stderr and "broken tree" in proc.stderr


def test_malformed_sizes_are_a_usage_error():
    for sizes in ("1,,2", "x", "0"):
        proc = subprocess.run([sys.executable, str(HARNESS), "--sizes", sizes],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (sizes, proc.stderr)
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_a_move_is_flagged_only_where_the_interquartile_ranges_miss():
    spec = importlib.util.spec_from_file_location("layers", HARNESS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def stats(q1, q3):
        return {"q1_us": q1, "median_us": (q1 + q3) / 2, "q3_us": q3}

    assert layers.move(stats(10, 12), stats(7, 9)) == "faster"
    assert layers.move(stats(10, 12), stats(13, 14)) == "slower"
    assert layers.move(stats(10, 12), stats(8, 10)) == ""
    assert layers.move(stats(10, 12), stats(11.5, 15)) == ""
