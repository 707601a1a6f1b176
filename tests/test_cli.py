"""CLI contract: subcommands, exit codes, file round trips."""

import contextlib
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kronquot.matrix as matrix
from kronquot import cli
from kronquot import (
    Matrix,
    check_axiom,
    check_projection,
    check_realization_conditions,
    check_weight_conditions,
    kron,
    left_quotient,
    pfp,
    read_matrix,
    relative_residual,
    remainder,
    right_quotient,
    write_matrix,
)
from kronquot.cli import main
from kronquot.quotients import BUILTIN_SCHEMES, resolve_scheme
from oracles import graded_matrix


@pytest.fixture
def fixtures(tmp_path):
    rng = np.random.default_rng(91)
    a = Matrix.diagonal([2, 4])
    b = Matrix.from_array(rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    m_worked = Matrix.from_rows([[2, 0, 0, 0],
                                 [0, 2, 0, 0],
                                 [0, 0, 8, 0],
                                 [0, 0, 0, 8]])
    paths = {
        "A": tmp_path / "A.mat",
        "B": tmp_path / "B.mat",
        "M": tmp_path / "M.mat",
        "AB": tmp_path / "AB.mat",
        "Z": tmp_path / "Z.mat",
    }
    write_matrix(paths["A"], a)
    write_matrix(paths["B"], b)
    write_matrix(paths["M"], m_worked)
    write_matrix(paths["AB"], kron(a, b))
    write_matrix(paths["Z"], Matrix.diagonal([1, -1]))
    return tmp_path, paths, {"A": a, "B": b, "M": m_worked}


def test_kron_to_file_bit_exact(fixtures):
    tmp_path, paths, mats = fixtures
    out = tmp_path / "out.mat"
    assert main(["kron", str(paths["A"]), str(paths["B"]), "-o", str(out)]) == 0
    assert read_matrix(out) == kron(mats["A"], mats["B"])


def test_kron_to_stdout(fixtures, capsys):
    _, paths, mats = fixtures
    assert main(["kron", str(paths["A"]), str(paths["B"])]) == 0
    printed = capsys.readouterr().out
    assert read_back(printed) == kron(mats["A"], mats["B"])


def read_back(text):
    from kronquot import parse_matrix

    return parse_matrix(text)


def test_quot_worked_example_prints_exact_text(fixtures, capsys):
    _, paths, _ = fixtures
    code = main(["quot", "--scheme", "leopardi", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"])])
    assert code == 0
    assert capsys.readouterr().out == "2 2\n1.5 0\n0 1.5\n"


def test_quot_round_trip_through_files(fixtures, tmp_path):
    _, paths, mats = fixtures
    out = tmp_path / "B_back.mat"
    for scheme in ("leopardi", "frobenius", "operator", "trace"):
        code = main(["quot", "--scheme", scheme, "--shape", "2,2,2,2",
                     str(paths["A"]), str(paths["AB"]), "-o", str(out)])
        assert code == 0
        assert relative_residual(read_matrix(out), mats["B"]) < 1e-12


def test_rquot_recovers_left_factor(fixtures, tmp_path):
    _, paths, mats = fixtures
    out = tmp_path / "A_back.mat"
    code = main(["rquot", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["AB"]), str(paths["B"]), "-o", str(out)])
    assert code == 0
    assert relative_residual(read_matrix(out), mats["A"]) < 1e-12


def test_rem_reports_divisor_and_residual(fixtures, tmp_path, capsys):
    _, paths, mats = fixtures
    out = tmp_path / "R.mat"
    code = main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["AB"]), "-o", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("divisor=true residual=")
    assert read_matrix(out).frobenius_norm() < 1e-12

    code = main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"]), "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("divisor=false residual=")


def test_rem_takes_each_sum_of_squares_once(fixtures, capsys, monkeypatch):
    # the verdict and the trailer share one ||R||, and ||M|| reuses the sum its read took
    _, paths, _ = fixtures
    sums, seen = [], {}
    squares, rem = matrix._squares, cli.remainder
    monkeypatch.setattr(matrix, "_squares", lambda arr: sums.append(arr) or squares(arr))

    def remainder(scheme, a, m, shape):
        seen.update(a=a, m=m, r=rem(scheme, a, m, shape))
        return seen["r"]

    monkeypatch.setattr(cli, "remainder", remainder)
    assert main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"])]) == 0
    assert "# divisor=false residual=" in capsys.readouterr().out
    counts = {key: sum(np.shares_memory(arr, x._a) for arr in sums) for key, x in seen.items()}
    assert counts == {"a": 1, "m": 1, "r": 1}


def test_rem_to_stdout_keeps_matrix_parseable(fixtures, capsys):
    _, paths, _ = fixtures
    code = main(["rem", "--scheme", "leopardi", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"])])
    assert code == 0
    printed = capsys.readouterr().out
    assert "# divisor=false" in printed
    matrix = read_back(printed)  # the trailer is a comment line
    assert matrix.rows == 4


def test_rem_then_reassembly(fixtures, tmp_path):
    _, paths, mats = fixtures
    quot_file = tmp_path / "C.mat"
    rem_file = tmp_path / "R.mat"
    main(["quot", "--scheme", "frobenius", "--shape", "2,2,2,2",
          str(paths["A"]), str(paths["M"]), "-o", str(quot_file)])
    main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
          str(paths["A"]), str(paths["M"]), "-o", str(rem_file)])
    rebuilt = kron(mats["A"], read_matrix(quot_file)) + read_matrix(rem_file)
    assert relative_residual(rebuilt, mats["M"]) < 1e-15


def test_pfp_subcommand(fixtures, capsys):
    _, paths, mats = fixtures
    assert main(["pfp", str(paths["A"]), str(paths["AB"])]) == 0
    printed = capsys.readouterr().out
    assert relative_residual(read_back(printed), pfp(mats["A"], kron(mats["A"], mats["B"]))) < 1e-15


class TestCheckCommand:
    def test_holding_axiom_exits_zero(self, capsys):
        code = main(["check", "--axiom", "Q1", "--scheme", "frobenius",
                     "--trials", "25", "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=holds" in out

    def test_failing_axiom_exits_one(self, capsys):
        code = main(["check", "--axiom", "Q5R", "--scheme", "leopardi",
                     "--trials", "25", "--seed", "42"])
        assert code == 1
        assert "verdict=fails" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main(["check", "--axiom", "Q2b", "--scheme", "leopardi",
                     "--trials", "25", "--seed", "42", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["axiom"] == "Q2b"
        assert obj["verdict"] == "holds"

    def test_weight_conditions_need_weighted_scheme(self, capsys):
        code = main(["check", "--axiom", "Wcond", "--scheme", "leopardi",
                     "--trials", "20", "--seed", "42"])
        assert code == 0
        code = main(["check", "--axiom", "Wcond", "--scheme", "operator",
                     "--trials", "20", "--seed", "42"])
        assert code == 2
        assert "weighted scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius"])
    def test_weight_conditions_record_the_library_descriptor(self, scheme, capsys):
        code = main(["check", "--axiom", "Wcond", "--scheme", scheme,
                     "--trials", "20", "--seed", "42", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        rule = BUILTIN_SCHEMES[scheme].weights
        assert out == check_weight_conditions(rule, 20, 42).to_json() + "\n"
        descriptor = json.loads(out)["scheme"]
        assert descriptor == f"weighted({scheme}_weights)"
        assert resolve_scheme(descriptor).weights is rule

    def test_projection_check(self, capsys):
        code = main(["check", "--axiom", "PROJ", "--scheme", "frobenius",
                     "--trials", "20", "--seed", "42"])
        assert code == 0
        assert "axiom=PROJ" in capsys.readouterr().out

    def test_projection_check_on_square_only_scheme(self, capsys):
        # the unit basis holds E12, whose trace is 0; the trace rule gets a
        # spanning basis it is defined on, and is not biorthonormal on it
        code = main(["check", "--axiom", "PROJ", "--scheme", "trace",
                     "--trials", "20", "--seed", "42", "--json"])
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["axiom"] == "PROJ"
        assert obj["details"]["biorthonormal_residual"] == 1.0
        assert obj["details"]["iff_consistent"] is True

    def test_q5r_trace_holds(self):
        assert main(["check", "--axiom", "Q5R", "--scheme", "trace",
                     "--trials", "25", "--seed", "42"]) == 0

    # every law the table draws trials for, in table order
    CHOICES = ["Q1", "Q2a", "Q2b", "Q3", "Q5R", "Wcond", "Rcond", "PROJ"]

    def test_axiom_choices_are_the_checked_laws(self):
        from kronquot.axioms import _CHECKED_LAWS

        check = next(action for action in cli._PARSER._actions
                     if action.dest == "command").choices["check"]
        [axiom] = [action for action in check._actions if action.dest == "axiom"]
        assert list(axiom.choices) == list(_CHECKED_LAWS) == self.CHOICES

    @pytest.mark.parametrize("scheme", sorted(BUILTIN_SCHEMES))
    @pytest.mark.parametrize("axiom", CHOICES)
    def test_every_choice_prints_the_library_report(self, axiom, scheme, capsys):
        if axiom == "Wcond" and BUILTIN_SCHEMES[scheme].weights is None:
            code = main(["check", "--axiom", axiom, "--scheme", scheme, "--trials", "12"])
            assert code == 2
            assert "weighted scheme" in capsys.readouterr().err
            return
        if axiom == "Wcond":
            report = check_weight_conditions(BUILTIN_SCHEMES[scheme].weights, 12, 42, 3)
        elif axiom == "Rcond":
            report = check_realization_conditions(scheme, 12, 42, 3)
        elif axiom == "PROJ":
            # the CLI's basis: the unit basis, but E11, E22, E11+E12, E11+E21 for a
            # rule defined at nonzero trace only
            basis = ([Matrix.unit(2, 2, 1, 1), Matrix.unit(2, 2, 2, 2),
                      Matrix.from_rows([[1, 1], [0, 0]]), Matrix.from_rows([[1, 0], [1, 0]])]
                     if BUILTIN_SCHEMES[scheme].square_only
                     else [Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)])
            report = check_projection(basis, scheme, 12, 42, 3)
        else:
            report = check_axiom(axiom, scheme, 12, 42, 3)
        code = main(["check", "--axiom", axiom, "--scheme", scheme, "--trials", "12",
                     "--dims", "3", "--json"])
        assert capsys.readouterr().out == report.to_json() + "\n"
        assert code == (0 if report.holds else 1)

    def test_bad_dims_is_usage_error(self, capsys):
        code = main(["check", "--axiom", "Q1", "--scheme", "leopardi",
                     "--trials", "5", "--seed", "1", "--dims", "9"])
        assert code == 2
        assert "max_dim" in capsys.readouterr().err


def test_demo_exits_zero_with_three_reports(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out.count("axiom=") == 3
    assert out.count("verdict=fails") == 3


def test_demo_json(capsys):
    assert main(["demo", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["verdict"] == "fails" for line in lines)


class TestErrorExits:
    def test_missing_file(self, capsys):
        assert main(["kron", "/nonexistent/a.mat", "/nonexistent/b.mat"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2\n")
        assert main(["kron", str(bad), str(bad)]) == 2

    def test_parse_error_names_the_file_and_line(self, fixtures, tmp_path, capsys):
        _, paths, _ = fixtures
        bad = tmp_path / "bad.mat"
        bad.write_text("# dividend\n1 2\n1 bogus\n")
        assert main(["kron", str(bad), str(paths["B"])]) == 2
        assert capsys.readouterr().err == (
            f"kronquot: error: {bad}, line 3: bad scalar token 'bogus'\n")

    def test_shape_mismatch(self, fixtures, capsys):
        _, paths, _ = fixtures
        code = main(["quot", "--scheme", "leopardi", "--shape", "3,3,2,2",
                     str(paths["A"]), str(paths["M"])])
        assert code == 2

    def test_bad_shape_string(self, fixtures, capsys):
        _, paths, _ = fixtures
        assert main(["quot", "--scheme", "leopardi", "--shape", "2,2,2",
                     str(paths["A"]), str(paths["M"])]) == 2
        assert main(["quot", "--scheme", "leopardi", "--shape", "2,2,2,x",
                     str(paths["A"]), str(paths["M"])]) == 2
        capsys.readouterr()
        # ASCII digit runs only: none of int()'s underscores, signs, blanks or other
        # scripts' digits
        for text in ("1_0,2,2,2", "2,٢,2,2", "2,2,２,2", "+2,2,2,2", "2,2, 2,2"):
            assert main(["quot", "--scheme", "leopardi", "--shape", text,
                         str(paths["A"]), str(paths["M"])]) == 2
            assert f"--shape needs four integers, got {text!r}" in capsys.readouterr().err
        assert main(["quot", "--scheme", "leopardi", "--shape", "2,2,0,2",
                     str(paths["A"]), str(paths["M"])]) == 2
        assert "--shape components must be positive, got '2,2,0,2'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--dims"])
    def test_check_integer_flags_take_ascii_digit_runs(self, flag, capsys):
        # int() also takes other scripts' digits, underscores, signs and blanks
        for text in ("\u0663", "1_0", "+3", "\uff12", " 3", "-1", "3.0", ""):
            assert main(["check", "--axiom", "Q1", "--scheme", "frobenius",
                         flag, text]) == 2
            assert (f"argument {flag}: needs a run of ASCII digits, got {text!r}"
                    in capsys.readouterr().err)

    def test_unknown_scheme_is_usage_error(self, fixtures):
        _, paths, _ = fixtures
        assert main(["quot", "--scheme", "bogus", "--shape", "2,2,2,2",
                     str(paths["A"]), str(paths["M"])]) == 2

    def test_trace_scheme_zero_trace_names_the_restriction(self, fixtures, capsys):
        _, paths, _ = fixtures
        code = main(["quot", "--scheme", "trace", "--shape", "2,2,2,2",
                     str(paths["Z"]), str(paths["M"])])
        assert code == 2
        err = capsys.readouterr().err
        assert "tr(A)" in err or "trace" in err

    def test_numerical_failure_exits_three(self, fixtures, tmp_path, capsys, monkeypatch):
        # LAPACK fails on the operator scheme's SVD of a graded divisor
        def fail_to_converge(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        _, paths, mats = fixtures
        divisor = tmp_path / "divisor.mat"
        write_matrix(divisor, graded_matrix(np.random.default_rng(93), 4, 4))
        big = tmp_path / "big.mat"
        write_matrix(big, kron(read_matrix(divisor), mats["B"]))
        monkeypatch.setattr(np.linalg, "svd", fail_to_converge)
        code = main(["quot", "--scheme", "operator", "--shape", "4,4,2,2",
                     str(divisor), str(big)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["quot", "--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 2


def test_module_invocation(fixtures):
    import subprocess
    import sys

    _, paths, _ = fixtures
    proc = subprocess.run(
        [sys.executable, "-m", "kronquot", "quot", "--scheme", "leopardi",
         "--shape", "2,2,2,2", str(paths["A"]), str(paths["M"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2 2\n1.5 0\n0 1.5\n"


def test_overflowing_kron_prints_one_error_line(tmp_path):
    import subprocess
    import sys

    big, huge = tmp_path / "big.mat", tmp_path / "huge.mat"
    write_matrix(big, Matrix.from_array(np.full((2, 2), 1e200)))
    write_matrix(huge, Matrix.from_array(np.full((2, 2), 1e300)))
    proc = subprocess.run([sys.executable, "-m", "kronquot", "kron", str(big), str(huge)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "kronquot: error: kron of a 2x2 and a 2x2 matrix overflows binary64 "
        f"(inputs: {big}, {huge})"]


@pytest.mark.parametrize("command", ["pfp", "quot", "rquot", "rem"])
def test_overflow_error_names_the_input_files(tmp_path, capsys, command):
    a, m = tmp_path / "A.mat", tmp_path / "M.mat"
    write_matrix(a, Matrix.from_rows([[1, .5], [.25, 2]]))
    write_matrix(m, Matrix.from_array(np.full((4, 4), 1.5e308)))
    files = [str(m), str(a)] if command == "rquot" else [str(a), str(m)]
    options = [] if command == "pfp" else ["--scheme", "leopardi", "--shape", "2,2,2,2"]
    assert main([command, *options, *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "overflows binary64" in line
    assert line.endswith(f" (inputs: {files[0]}, {files[1]})")


def test_write_then_read_is_bit_exact_for_random_matrices(tmp_path):
    rng = np.random.default_rng(92)
    for idx in range(5):
        m = Matrix.from_array(rng.uniform(-100, 100, (3, 4))
                              + 1j * rng.uniform(-100, 100, (3, 4)))
        path = tmp_path / f"m{idx}.mat"
        write_matrix(path, m)
        assert read_matrix(path) == m
        assert read_matrix(path).entries == m.entries


SCHEMES = ["frobenius", "leopardi", "operator", "trace"]
SCHEME_SHAPE = [(("--scheme",), "scheme", None, True, SCHEMES, None),
                (("--shape",), "shape", "m,n,s,t", True, None, None)]
OUTPUT = [(("-o", "--output"), "output", "FILE", False, None, None)]


def _file(dest, metavar):
    return ((), dest, metavar, True, None, None)


# per subcommand, in parser order: each action but -h as (option strings, dest,
# metavar, required, choices, default); positionals in the order they are given
SUBCOMMAND_ARGUMENTS = {
    "kron": [_file("a", "A.mat"), _file("b", "B.mat"), *OUTPUT],
    "quot": [*SCHEME_SHAPE, _file("a", "A.mat"), _file("m", "M.mat"), *OUTPUT],
    "rquot": [*SCHEME_SHAPE, _file("m", "M.mat"), _file("b", "B.mat"), *OUTPUT],
    "rem": [*SCHEME_SHAPE, _file("a", "A.mat"), _file("m", "M.mat"), *OUTPUT],
    "pfp": [_file("a", "A.mat"), _file("m", "M.mat"), *OUTPUT],
    "check": [(("--axiom",), "axiom", None, True,
               ["Q1", "Q2a", "Q2b", "Q3", "Q5R", "Wcond", "Rcond", "PROJ"], None),
              (("--scheme",), "scheme", None, True, SCHEMES, None),
              (("--trials",), "trials", None, False, None, 200),
              (("--seed",), "seed", None, False, None, 42),
              (("--dims",), "dims", "D", False, None, 4),
              (("--json",), "json", None, False, None, False)],
    "demo": [(("--json",), "json", None, False, None, False)],
}


def test_every_subcommand_takes_the_pinned_arguments():
    # read from the action objects: argparse's formatted help differs across versions
    commands = next(action for action in cli._PARSER._actions
                    if action.dest == "command").choices
    assert list(commands) == list(SUBCOMMAND_ARGUMENTS)
    for name, parser in commands.items():
        fields = [(tuple(action.option_strings), action.dest, action.metavar, action.required,
                   None if action.choices is None else list(action.choices), action.default)
                  for action in parser._actions if action.dest != "help"]
        assert fields == SUBCOMMAND_ARGUMENTS[name], name


def test_every_file_command_call_is_seen_by_a_rebinding_tracer(fixtures, monkeypatch, capsys):
    # a tracer rebinds each kronquot module attribute bound to a library function, as
    # bench/tracing.py does; a command that captured the function at import goes round it
    _, paths, _ = fixtures
    calls = {"kron": kron, "pfp": pfp, "quot": left_quotient, "rquot": right_quotient,
             "rem": remainder}
    seen = []
    packages = [module for name, module in list(sys.modules.items())
                if module is not None and (name == "kronquot" or name.startswith("kronquot."))]
    for command, fn in calls.items():
        def counted(*args, command=command, fn=fn, **kwargs):
            seen.append(command)
            return fn(*args, **kwargs)

        for module in packages:
            for attr in [attr for attr, value in vars(module).items() if value is fn]:
                monkeypatch.setattr(module, attr, counted)
    a, b, ab = str(paths["A"]), str(paths["B"]), str(paths["AB"])
    options = ["--scheme", "frobenius", "--shape", "2,2,2,2"]
    argvs = {"kron": [a, b], "pfp": [a, ab], "quot": [*options, a, ab],
             "rquot": [*options, ab, b], "rem": [*options, a, ab]}
    for command, args in argvs.items():
        seen.clear()
        assert main([command, *args]) == 0
        assert seen.count(command) == 1, (command, seen)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["kron", "quot", "rquot", "rem", "pfp"])
def test_a_file_command_reads_its_files_in_call_order(tmp_path, capsys, command):
    # with both files malformed, the error names the first operand's file
    first, second = tmp_path / "first.mat", tmp_path / "second.mat"
    first.write_text("1 1\nx\n")
    second.write_text("1 1\ny\n")
    options = ["--scheme", "frobenius", "--shape", "1,1,1,1"]
    argv = [command, *([] if command in ("kron", "pfp") else options), str(first), str(second)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"kronquot: error: {first}, line 2: bad scalar token 'x'\n"


def test_calls_reuse_one_parser(fixtures, capsys, monkeypatch):
    _, paths, _ = fixtures

    def forbidden():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", forbidden)
    argv = ["quot", "--scheme", "leopardi", "--shape", "2,2,2,2", str(paths["A"]), str(paths["M"])]
    for _ in range(5):
        assert main(argv) == 0
        assert capsys.readouterr().out == "2 2\n1.5 0\n0 1.5\n"
    # usage errors and help leave the shared parser as it was
    assert main(["quot", "--scheme", "nonesuch", "--shape", "2,2,2,2", "a", "b"]) == 2
    assert main(["quot", "--help"]) == 0
    assert main(["check", "--axiom", "Q1", "--scheme", "trace", "--trials", "5"]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("2 2\n1.5 0\n0 1.5\n")


def test_threaded_calls_write_what_serial_calls_write(fixtures, tmp_path):
    _, paths, _ = fixtures
    jobs = [["quot", "--scheme", scheme, "--shape", "2,2,2,2", str(paths["A"]), str(paths["AB"])]
            for scheme in ("leopardi", "frobenius", "operator", "trace")]
    jobs += [["rquot", "--scheme", "operator", "--shape", "2,2,2,2", str(paths["AB"]),
              str(paths["B"])], ["kron", str(paths["A"]), str(paths["B"])],
             ["pfp", str(paths["A"]), str(paths["AB"])],
             ["rem", "--scheme", "frobenius", "--shape", "2,2,2,2", str(paths["A"]),
              str(paths["AB"])]]

    def run(job, prefix):
        out = tmp_path / f"{prefix}-{job}.mat"
        assert main([*jobs[job], "-o", str(out)]) == 0
        return out.read_bytes()

    serial = [run(job, "serial") for job in range(len(jobs))]

    def worker(thread):
        return [run(job, f"t{thread}-r{rep}") for rep in range(3) for job in range(len(jobs))]

    with contextlib.redirect_stdout(io.StringIO()):  # rem's trailer
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4)))
    assert results == [serial * 3] * 4
