"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and asserts every bound at its stated tolerance, so ``pytest -v`` shows
one verdict per criterion either way.
"""

import json
import time

import numpy as np

from kronquot import (
    FactorShape,
    Matrix,
    QuotientScheme,
    TOLERANCE,
    check_axiom,
    check_projection,
    demo_counterexamples,
    kron,
    left_quotient,
    pfp,
    pfp_scalar,
    read_matrix,
    realization_for,
    relative_residual,
    replay_counterexample,
    right_quotient,
    svd,
    write_matrix,
)
from kronquot.cli import main
from oracles import (
    family_from_realization,
    graded_matrix,
    jacobi_eigenvalues,
    reconstruct,
    vanloan_factor,
)


def report(number, name, worst, bound, extra=""):
    ok = worst <= bound
    tag = "PASS" if ok else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {tag} (worst {worst:.3e} vs bound {bound:.0e}){suffix}")
    assert ok, f"criterion {number} ({name}): {worst} > {bound}"


def random_matrix(rng, rows, cols, real=False):
    arr = rng.uniform(-1, 1, (rows, cols))
    if not real:
        arr = arr + 1j * rng.uniform(-1, 1, (rows, cols))
    return Matrix.from_array(arr)


def random_nonzero(rng, rows, cols, need_trace=False):
    while True:
        a = random_matrix(rng, rows, cols)
        if a.frobenius_norm() < 1e-6:
            continue
        if need_trace and abs(a.trace()) < 1e-6:
            continue
        return a


def general_linear_family(a, s, t):
    """A valid component family beyond the uniform ones: diagonal copies of
    the energy-normalized conjugate plus one off-diagonal component that
    pairs to zero against the divisor."""
    base = dict(family_from_realization(realization_for("frobenius"))(a, s, t))
    if s >= 2 and t >= 2:
        pattern = Matrix.from_array(np.fromfunction(
            lambda i, j: (i + 1.0) + 1j * (j + 2.0), (a.rows, a.cols)))
        conj = a.conjugate()
        coefficient = pfp_scalar(pattern, a) / pfp_scalar(conj, a)
        base[(1, 1, 2, 2)] = pattern - coefficient * conj
    return base


def test_criterion_1_defining_round_trips():
    schemes = {
        "leopardi": QuotientScheme.leopardi(),
        "frobenius": QuotientScheme.frobenius(),
        "operator": QuotientScheme.operator(),
        "trace": QuotientScheme.trace(),
        "linear": QuotientScheme.linear(general_linear_family),
    }
    started = time.monotonic()
    worst = 0.0
    for name, scheme in schemes.items():
        square = name == "trace"
        rng = np.random.default_rng(1001)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            n = m if square else int(rng.integers(1, 5))
            s = int(rng.integers(1, 5))
            t = s if square else int(rng.integers(1, 5))
            a = random_nonzero(rng, m, n, need_trace=square)
            b = random_nonzero(rng, s, t, need_trace=square)
            shape = FactorShape(m, n, s, t)
            product = kron(a, b)
            worst = max(worst, relative_residual(
                left_quotient(scheme, a, product, shape), b))
            worst = max(worst, relative_residual(
                right_quotient(scheme, product, b, shape), a))
    elapsed = time.monotonic() - started
    report(1, "defining-round-trips", worst, 1e-9,
           extra=f"[5 schemes x 500 pairs, {elapsed:.1f}s]")
    assert elapsed <= 10.0, f"round-trip sweep took {elapsed:.1f}s, budget 10s"


def test_criterion_2_partial_frobenius_laws():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s, t = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))

        # (i) transposition passes through the pairing
        a = random_matrix(rng, m, n)
        big = random_matrix(rng, m * s, n * t)
        worst = max(worst, relative_residual(
            pfp(a, big).transpose(), pfp(a.transpose(), big.transpose())))

        # (ii) a kron factor on the right peels off
        b = random_matrix(rng, m * s, n * t)
        c = random_matrix(rng, p, q)
        worst = max(worst, relative_residual(
            pfp(a, kron(b, c)), kron(pfp(a, b), c)))

        # (iii) nested block structure collapses in stages
        wide = random_matrix(rng, m * s * p, n * t * q)
        b_small = random_matrix(rng, s, t)
        worst = max(worst, relative_residual(
            pfp(wide, kron(b_small, c)), pfp(pfp(wide, b_small), c)))

        # (iv) unit matrices read single entries
        j = int(rng.integers(1, m + 1))
        k = int(rng.integers(1, n + 1))
        worst = max(worst, abs(pfp(a, Matrix.unit(m, n, j, k)).entry(1, 1)
                               - a.entry(j, k)))

        # (v) the identity reads the trace
        sq = random_matrix(rng, n, n)
        worst = max(worst, abs(pfp(sq, Matrix.identity(n)).entry(1, 1) - sq.trace()))
    report(2, "partial-frobenius-laws", worst, 1e-10, extra="[5 laws x 200 draws]")


def test_criterion_3_axiom_matrix():
    verdicts = {}
    worst = 0.0
    for scheme in ("leopardi", "frobenius"):
        for axiom in ("Q1", "Q2a", "Q2b", "Q3"):
            dims = 3 if axiom == "Q3" else 4
            result = check_axiom(axiom, scheme, 200, 42, dims)
            verdicts[(axiom, scheme)] = result.verdict
            if axiom == "Q2b":
                # SCALARS holds complex k too; the real-k maximum is recorded apart
                assert result.detail("max_residual_real_k") <= TOLERANCE
            worst = max(worst, result.max_residual)
    trace_result = check_axiom("Q5R", "trace", 200, 42, 4)
    verdicts[("Q5R", "trace")] = trace_result.verdict
    worst = max(worst, trace_result.max_residual)
    failing = {pair: v for pair, v in verdicts.items() if v != "holds"}
    print(f"ACCEPTANCE 3 axiom-matrix: {'PASS' if not failing else 'FAIL'} "
          f"(9 checks x 200 trials, worst residual {worst:.3e})")
    assert not failing, f"non-holding verdicts: {failing}"


def test_criterion_4_counterexample_reproduction():
    reports = demo_counterexamples()
    q4, q5, rank_gap = reports

    values = q4.counterexample.values()
    assert (values["A"] @ values["C"]).is_zero()
    assert q4.verdict == "fails"

    values = q5.counterexample.values()
    assert values["A"].trace() == 0
    assert abs(values["M"].trace()) > 0
    assert q5.verdict == "fails"

    assert rank_gap.detail("rank_under_trace_rule") == 4
    assert rank_gap.detail("rank_of_tensor_factorized_value") == 1
    assert rank_gap.verdict == "fails"

    replayed = [replay_counterexample(r) for r in reports]
    ok = all(r > 1e-8 for r in replayed) and \
        all(abs(r - rep.max_residual) <= 1e-12 for r, rep in zip(replayed, reports))
    print(f"ACCEPTANCE 4 counterexample-reproduction: {'PASS' if ok else 'FAIL'} "
          f"(replayed residuals {', '.join(f'{r:.3e}' for r in replayed)})")
    assert ok


def test_criterion_5_projection_theorem():
    unit_basis = [Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
    scheme = QuotientScheme.frobenius()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(1, 4))
        mat = random_matrix(rng, 2 * s, 2 * s)
        shape = FactorShape(2, 2, s, s)
        total = Matrix.zero(2 * s, 2 * s)
        for elem in unit_basis:
            total = total + kron(elem, left_quotient(scheme, elem, mat, shape))
        worst = max(worst, (mat - total).frobenius_norm() / mat.frobenius_norm())

    good = check_projection(unit_basis, scheme, 100, 42, 3)
    lopsided = [Matrix.identity(2), Matrix.unit(2, 2, 1, 1),
                Matrix.unit(2, 2, 1, 2), Matrix.unit(2, 2, 2, 1)]
    bad = check_projection(lopsided, scheme, 100, 42, 3)
    consistent = (good.holds
                  and good.detail("iff_consistent") is True
                  and not bad.holds
                  and bad.detail("biorthonormal_verdict") == "fails"
                  and bad.detail("reconstruction_verdict") == "fails"
                  and bad.detail("iff_consistent") is True)
    ok = worst <= 1e-8 and consistent
    print(f"ACCEPTANCE 5 projection-theorem: {'PASS' if ok else 'FAIL'} "
          f"(worst reconstruction {worst:.3e}, verdicts consistent: {consistent})")
    assert worst <= 1e-8
    assert consistent


def test_criterion_6_frobenius_optimality():
    rng = np.random.default_rng(1006)
    worst_gap = 0.0   # how far any perturbation got below the returned factor
    worst_agreement = 0.0
    for _ in range(100):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s, t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = random_matrix(rng, m, n, real=True)
        if a.frobenius_norm() < 1e-6:
            continue
        mat = random_matrix(rng, m * s, n * t, real=True)
        shape = FactorShape(m, n, s, t)
        factor = left_quotient("frobenius", a, mat, shape)
        baseline = (mat - kron(a, factor)).frobenius_norm()
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-8, 0)
            rival = factor + scale * random_matrix(rng, s, t, real=True)
            worst_gap = max(worst_gap,
                            baseline - (mat - kron(a, rival)).frobenius_norm())
        worst_agreement = max(worst_agreement, relative_residual(
            vanloan_factor(a, mat, shape), factor))
    ok = worst_gap <= 1e-9 and worst_agreement <= 1e-10
    print(f"ACCEPTANCE 6 frobenius-optimality: {'PASS' if ok else 'FAIL'} "
          f"(best rival gap {worst_gap:.3e}, route agreement {worst_agreement:.3e})")
    assert worst_gap <= 1e-9
    assert worst_agreement <= 1e-10


def test_criterion_7_svd_kernel():
    rng = np.random.default_rng(1007)
    worst_recon = worst_unitary = worst_sigma = 0.0
    oracle_runs = 0
    determinism = True
    for index in range(200):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        a = random_matrix(rng, m, n)
        result = svd(a)
        assert all(result.sigma[k] >= result.sigma[k + 1]
                   for k in range(len(result.sigma) - 1))
        assert all(x >= 0.0 for x in result.sigma)
        worst_recon = max(worst_recon,
                          (reconstruct(result) - a).frobenius_norm()
                          / max(1.0, a.frobenius_norm()))
        # compact form: m x r and n x r with orthonormal columns, r = min(m, n) here
        r = min(m, n)
        assert result.u.shape == (m, r) and result.v.shape == (n, r)
        worst_unitary = max(
            worst_unitary,
            (result.u.conjugate().transpose() @ result.u - Matrix.identity(r)).frobenius_norm(),
            (result.v.conjugate().transpose() @ result.v - Matrix.identity(r)).frobenius_norm())
        if m <= 8 and n <= 8:
            oracle_runs += 1
            eigs = jacobi_eigenvalues(a.conjugate().transpose() @ a)
            scale = max(1.0, result.sigma[0])
            for got, lam in zip(result.sigma, eigs):
                worst_sigma = max(worst_sigma,
                                  abs(got - np.sqrt(max(lam, 0.0))) / scale)
        if index % 10 == 0:
            again = svd(Matrix.from_array(a.to_array()))
            determinism = determinism and again.sigma == result.sigma \
                and again.u.entries == result.u.entries \
                and again.v.entries == result.v.entries
    ok = (worst_recon <= 1e-9 and worst_unitary <= 1e-10
          and worst_sigma <= 1e-8 and determinism and oracle_runs >= 30)
    print(f"ACCEPTANCE 7 svd-kernel: {'PASS' if ok else 'FAIL'} "
          f"(recon {worst_recon:.3e}, unitary {worst_unitary:.3e}, "
          f"sigma-vs-oracle {worst_sigma:.3e} over {oracle_runs} runs, "
          f"bit-deterministic: {determinism})")
    assert worst_recon <= 1e-9
    assert worst_unitary <= 1e-10
    assert worst_sigma <= 1e-8
    assert determinism
    assert oracle_runs >= 30


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(1008)
    a = Matrix.diagonal([2, 4])
    b = random_matrix(rng, 2, 2)
    worked = Matrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0],
                               [0, 0, 8, 0], [0, 0, 0, 8]])
    paths = {"A": tmp_path / "A.mat", "B": tmp_path / "B.mat",
             "M": tmp_path / "M.mat", "AB": tmp_path / "AB.mat",
             "Z": tmp_path / "Z.mat", "out": tmp_path / "out.mat"}
    write_matrix(paths["A"], a)
    write_matrix(paths["B"], b)
    write_matrix(paths["M"], worked)
    write_matrix(paths["AB"], kron(a, b))
    write_matrix(paths["Z"], Matrix.diagonal([1, -1]))

    checks = []

    # bit-exact file round trip
    checks.append(("round-trip", read_matrix(paths["B"]).entries == b.entries))

    # kron subcommand
    code = main(["kron", str(paths["A"]), str(paths["B"]), "-o", str(paths["out"])])
    checks.append(("kron", code == 0 and read_matrix(paths["out"]) == kron(a, b)))

    # the worked quotient example prints exactly [[1.5, 0], [0, 1.5]]
    code = main(["quot", "--scheme", "leopardi", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"])])
    printed = capsys.readouterr().out
    checks.append(("quot-worked", code == 0 and printed == "2 2\n1.5 0\n0 1.5\n"))

    # right quotient recovers the left factor
    code = main(["rquot", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["AB"]), str(paths["B"]), "-o", str(paths["out"])])
    checks.append(("rquot", code == 0
                   and relative_residual(read_matrix(paths["out"]), a) < 1e-10))

    # remainder and the divisor verdict line
    code = main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["AB"]), "-o", str(paths["out"])])
    line = capsys.readouterr().out
    checks.append(("rem-true", code == 0 and line.startswith("divisor=true")))
    code = main(["rem", "--scheme", "frobenius", "--shape", "2,2,2,2",
                 str(paths["A"]), str(paths["M"]), "-o", str(paths["out"])])
    line = capsys.readouterr().out
    checks.append(("rem-false", code == 0 and line.startswith("divisor=false")))

    # pfp subcommand
    code = main(["pfp", str(paths["A"]), str(paths["AB"]), "-o", str(paths["out"])])
    checks.append(("pfp", code == 0 and relative_residual(
        read_matrix(paths["out"]), pfp(a, kron(a, b))) < 1e-12))

    # check: exit 0 on holds, 1 on fails, JSON parses
    code = main(["check", "--axiom", "Q1", "--scheme", "frobenius",
                 "--trials", "50", "--seed", "42", "--json"])
    payload = capsys.readouterr().out
    checks.append(("check-holds", code == 0
                   and json.loads(payload)["verdict"] == "holds"))
    code = main(["check", "--axiom", "Q5R", "--scheme", "leopardi",
                 "--trials", "50", "--seed", "42"])
    capsys.readouterr()
    checks.append(("check-fails", code == 1))

    # demo: failing reports are the expected output, exit 0
    code = main(["demo"])
    out = capsys.readouterr().out
    checks.append(("demo", code == 0 and out.count("verdict=fails") == 3))

    # usage and domain errors exit 2
    checks.append(("exit2-missing", main(["kron", "nope.mat", "nope.mat"]) == 2))
    checks.append(("exit2-shape", main(["quot", "--scheme", "leopardi", "--shape",
                                        "3,3,2,2", str(paths["A"]), str(paths["M"])]) == 2))
    checks.append(("exit2-trace", main(["quot", "--scheme", "trace", "--shape",
                                        "2,2,2,2", str(paths["Z"]), str(paths["M"])]) == 2))
    capsys.readouterr()

    # numerical failure exits 3 (LAPACK's SVD of a graded divisor fails)
    def fail_to_converge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    divisor = tmp_path / "graded.mat"
    write_matrix(divisor, graded_matrix(rng, 4, 4))
    write_matrix(paths["out"], kron(read_matrix(divisor), b))
    monkeypatch.setattr(np.linalg, "svd", fail_to_converge)
    code = main(["quot", "--scheme", "operator", "--shape", "4,4,2,2",
                 str(divisor), str(paths["out"])])
    monkeypatch.undo()
    capsys.readouterr()
    checks.append(("exit3-convergence", code == 3))

    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 cli-contract: {'PASS' if not failed else 'FAIL'} "
              f"({len(checks)} checks{', failed: ' + ', '.join(failed) if failed else ''})")
    assert not failed
