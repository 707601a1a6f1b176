"""Axiom suite: verdicts, reproducibility, counterexample replay, demos."""

import dataclasses
import json
import re
import sys
from functools import partial

import numpy as np
import pytest

from kronquot import (
    ConfigurationError,
    Counterexample,
    Matrix,
    QuotientScheme,
    Realization,
    TOLERANCE,
    check_axiom,
    check_projection,
    check_realization_conditions,
    check_weight_conditions,
    demo_counterexamples,
    frobenius_weights,
    leopardi_weights,
    parse_matrix,
    realization_for,
    replay_counterexample,
    weighted_realization,
)
import kronquot.singular as singular
from kronquot.matfile import from_line, to_line
from kronquot.quotients import BUILTIN_SCHEMES, resolve_scheme
from oracles import NzIndex, family_from_realization


def skew_weights(a):
    """Weights proportional to i + j over the nonzero entries; sums to 1
    but does not factor over Kronecker products."""
    nz = NzIndex.of(a)
    total = sum(i + j for i, j in nz.positions)
    w = np.zeros((a.rows, a.cols), dtype=complex)
    for i, j in nz.positions:
        w[i - 1, j - 1] = (i + j) / total
    return Matrix.from_array(w)


class TestCheckAxiom:
    @pytest.mark.parametrize("axiom", ["Q1", "Q2a", "Q2b", "Q3"])
    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius"])
    def test_free_dividend_axioms_hold(self, axiom, scheme):
        dims = 3 if axiom == "Q3" else 4
        report = check_axiom(axiom, scheme, 60, 42, dims)
        assert report.holds, report.to_text()

    def test_trace_scheme_trace_rule_holds(self):
        report = check_axiom("Q5R", "trace", 60, 42, 4)
        assert report.holds

    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius"])
    def test_trace_rule_fails_elsewhere_and_replays(self, scheme):
        report = check_axiom("Q5R", scheme, 60, 42, 4)
        assert not report.holds
        assert report.counterexample is not None
        assert replay_counterexample(report) == pytest.approx(report.max_residual)
        assert replay_counterexample(report) > TOLERANCE

    @pytest.mark.parametrize("scheme", ["leopardi", "frobenius", "operator", "trace"])
    @pytest.mark.parametrize("axiom", ["Q1", "Q2a", "Q2b", "Q3", "Q5R"])
    def test_restricted_to_kron_dividends_all_schemes_comply(self, axiom, scheme):
        dims = 3 if axiom == "Q3" else 4
        report = check_axiom(axiom, scheme, 40, 42, dims, restricted=True)
        assert report.holds, report.to_text()

    def test_q2b_records_real_and_complex_scalars_separately(self):
        report = check_axiom("Q2b", "frobenius", 60, 42, 4)
        assert report.detail("max_residual_real_k") is not None
        assert report.detail("max_residual_complex_k") is not None

    def test_draws_follow_the_declared_domain_not_the_label(self):
        # a square-only rule under another label still gets square, nonzero-trace divisors
        renamed = dataclasses.replace(realization_for("trace"), label="renamed")
        assert check_axiom("Q5R", renamed, 60, 42, 4).holds

    def test_operator_scheme_flags_degenerate_draws(self):
        report = check_axiom("Q1", "operator", 40, 42, 4)
        assert report.detail("degenerate_leading_pairs") is not None

    @pytest.mark.parametrize("axiom", ["Q1", "Q3"])
    def test_operator_probe_in_every_naming_form(self, axiom):
        # the probe follows the rule evaluated, not the name it was given under
        forms = ("operator", QuotientScheme.operator(), realization_for("operator"))
        counts = [check_axiom(axiom, form, 12, 42, 3).detail("degenerate_leading_pairs")
                  for form in forms]
        assert counts[0] is not None
        assert counts == [counts[0]] * 3
        assert check_axiom(axiom, "frobenius", 12, 42, 3).detail(
            "degenerate_leading_pairs") is None

    @pytest.mark.parametrize("axiom,calls", [("Q1", 40), ("Q2a", 20), ("Q5R", 20)])
    def test_each_divisor_decomposed_once(self, axiom, calls, monkeypatch):
        # operator trials realize each divisor once, and the degeneracy probe
        # reads sigma from those realizations instead of decomposing again
        count = 0
        original = singular.svd

        def counted(a):
            nonlocal count
            count += 1
            return original(a)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kronquot"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counted)
        check_axiom(axiom, "operator", 20, 42, 4)
        assert count == calls

    @pytest.mark.parametrize("axiom", ["Q1", "Q2a", "Q2b", "Q3", "Q5R"])
    def test_linear_diagonal_family_reports_like_its_uniform_scheme(self, axiom):
        # the diagonal family of Q(A) evaluates the uniform quotient entry by entry
        linear = QuotientScheme.linear(family_from_realization(realization_for("frobenius")))
        report = check_axiom(axiom, linear, 40, 42, 4)
        uniform = check_axiom(axiom, "frobenius", 40, 42, 4)
        assert (report.max_residual, report.verdict) == (uniform.max_residual, uniform.verdict)
        assert report.holds == (axiom != "Q5R")
        if not report.holds:
            assert report.counterexample.inputs == uniform.counterexample.inputs
            assert replay_counterexample(report, linear) == report.max_residual

    def test_reproducibility_bit_identical(self):
        first = check_axiom("Q3", "leopardi", 30, 7, 3)
        second = check_axiom("Q3", "leopardi", 30, 7, 3)
        assert first.to_text() == second.to_text()
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        a = check_axiom("Q1", "leopardi", 30, 7, 4)
        b = check_axiom("Q1", "leopardi", 30, 8, 4)
        assert a.max_residual != b.max_residual

    def test_configuration_errors(self):
        expected = "expected one of ('Q1', 'Q2a', 'Q2b', 'Q3', 'Q5R')"
        with pytest.raises(ConfigurationError, match=re.escape(expected)):
            check_axiom("Q9", "leopardi", 10, 1, 4)
        with pytest.raises(ConfigurationError):
            check_axiom("Q1", "nonesuch", 10, 1, 4)
        with pytest.raises(ConfigurationError):
            check_axiom("Q1", "leopardi", 0, 1, 4)
        with pytest.raises(ConfigurationError):
            check_axiom("Q1", "leopardi", 10, -3, 4)
        with pytest.raises(ConfigurationError):
            check_axiom("Q1", "leopardi", 10, 1, 9)
        checks = [partial(check_axiom, "Q1", "leopardi"),
                  partial(check_weight_conditions, leopardi_weights),
                  partial(check_realization_conditions, "leopardi"),
                  partial(check_projection, UNIT_BASIS, "frobenius")]
        for name, bad in [("seed", 1.5), ("trials", 2.5), ("seed", "1"), ("max_dim", 2.5)]:
            args = {"trials": 10, "seed": 1, "max_dim": 4, name: bad}
            for check in checks:
                with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
                    check(**args)
        # True and numpy integers are integers, and reports record them as ints
        for check in checks:
            report = check(True, np.int64(7), np.int32(2))
            assert (report.trials, report.seed) == (1, 7)
            assert type(report.trials) is int and type(report.seed) is int
            json.loads(report.to_json())


class TestSerialization:
    def test_text_has_stable_field_order(self):
        report = check_axiom("Q1", "frobenius", 20, 42, 4)
        lines = report.to_text().splitlines()
        assert lines[0].startswith("axiom=")
        assert lines[1].startswith("scheme=")
        assert lines[2] == "trials=20"
        assert lines[3] == "seed=42"
        assert lines[4].startswith("max_residual=")
        assert lines[5] == "verdict=holds"

    def test_json_is_one_object_with_parseable_inputs(self):
        report = check_axiom("Q5R", "leopardi", 30, 42, 4)
        obj = json.loads(report.to_json())
        assert obj["verdict"] == "fails"
        counter = obj["counterexample"]
        assert counter is not None
        a = from_line(counter["inputs"]["A"])
        m = from_line(counter["inputs"]["M"])
        assert m.rows % a.rows == 0 and m.cols % a.cols == 0

    def test_counterexample_matrices_decode_via_matrix_format(self):
        report = check_axiom("Q5R", "frobenius", 30, 42, 4)
        for _, text in report.counterexample.inputs:
            decoded = parse_matrix(text.replace(";", "\n"))
            assert decoded.rows >= 1


class TestWeightConditions:
    def test_uniform_weights_pass_both_conditions(self):
        report = check_weight_conditions(leopardi_weights, 40, 42)
        assert report.holds
        assert report.detail("transpose_iff_q1") is True
        assert report.detail("kron_iff_q3") is True

    def test_energy_weights_pass_both_conditions(self):
        report = check_weight_conditions(frobenius_weights, 40, 42)
        assert report.holds

    def test_skew_weights_break_kron_but_not_transpose(self):
        report = check_weight_conditions(skew_weights, 40, 42)
        assert not report.holds
        assert report.detail("w_transpose_verdict") == "holds"
        assert report.detail("w_kron_verdict") == "fails"
        # the characterization: Q1 follows the transpose condition, Q3 the kron one
        assert report.detail("q1_verdict") == "holds"
        assert report.detail("q3_verdict") == "fails"
        assert report.detail("transpose_iff_q1") is True
        assert report.detail("kron_iff_q3") is True
        assert replay_counterexample(
            report, QuotientScheme.weighted(skew_weights)) == report.max_residual > TOLERANCE

    @pytest.mark.parametrize("scheme", ["operator", "trace", QuotientScheme.operator()])
    def test_replay_on_a_scheme_without_weights_names_it(self, scheme):
        report = check_weight_conditions(skew_weights, 40, 42)
        assert not report.holds
        named = scheme if isinstance(scheme, str) else scheme.describe()
        with pytest.raises(ConfigurationError, match=f"weighted scheme .*'{named}'"):
            replay_counterexample(report, scheme)

    def test_matching_q3_failure_on_same_seed(self):
        report = check_axiom("Q3", QuotientScheme.weighted(skew_weights), 40, 42, 3)
        assert not report.holds


class TestRealizationConditions:
    def test_frobenius_realization_satisfies_all_identities(self):
        report = check_realization_conditions(realization_for("frobenius"), 40, 42)
        assert report.holds
        for key in ("transpose_iff_q1", "scale_iff_q2b", "kron_iff_q3"):
            assert report.detail(key) is True, report.to_text()

    def test_frobenius_scale_identity_even_for_complex_k(self):
        # conj(k)/|k|^2 equals 1/k identically, so complex scalars stay exact
        report = check_realization_conditions(realization_for("frobenius"), 40, 42)
        assert report.detail("q_scale_residual_complex_k") <= TOLERANCE

    def test_trace_realization_on_its_square_domain(self):
        # on square nonzero-trace draws all three identities hold; the
        # incompatibility with composition needs non-square factors and is
        # demonstrated separately by demo_counterexamples
        report = check_realization_conditions(realization_for("trace"), 40, 42)
        assert report.holds
        for key in ("transpose_iff_q1", "scale_iff_q2b", "kron_iff_q3"):
            assert report.detail(key) is True


UNIT_BASIS = [Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
# spanning but not biorthonormal: the identity overlaps the unit matrix E11
LOPSIDED_BASIS = [Matrix.identity(2), Matrix.unit(2, 2, 1, 1),
                  Matrix.unit(2, 2, 1, 2), Matrix.unit(2, 2, 2, 1)]


class TestProjection:
    def test_unit_basis_reconstructs(self):
        report = check_projection(UNIT_BASIS, "frobenius", 40, 42, 3)
        assert report.holds
        assert report.detail("iff_consistent") is True

    def test_lopsided_basis_fails_both_sides_consistently(self):
        report = check_projection(LOPSIDED_BASIS, "frobenius", 40, 42, 3)
        assert not report.holds
        assert report.detail("biorthonormal_verdict") == "fails"
        assert report.detail("reconstruction_verdict") == "fails"
        assert report.detail("iff_consistent") is True
        assert replay_counterexample(report) == report.max_residual > TOLERANCE

    def test_single_element_basis(self):
        report = check_projection([Matrix.from_rows([[2]])], "frobenius", 20, 42, 3)
        assert report.holds

    def test_non_spanning_basis_rejected(self):
        degenerate = [Matrix.unit(2, 2, 1, 1)] * 4
        with pytest.raises(ConfigurationError):
            check_projection(degenerate, "frobenius", 10, 42)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ConfigurationError):
            check_projection(UNIT_BASIS[:3], "frobenius", 10, 42)

    def test_linear_scheme_has_no_realization(self):
        scheme = QuotientScheme.linear(lambda a, s, t: {})
        with pytest.raises(ConfigurationError):
            check_projection(UNIT_BASIS, scheme, 10, 42)

    @pytest.mark.parametrize("basis,text", [
        ([], "empty basis"),
        ([Matrix.identity(2), Matrix.zero(1, 2)], "share one shape"),
        ([Matrix.zero(2, 2)] * 4, "does not span"),
        ([1, 2, 3, 4], "basis element 1 is not a Matrix: 1"),
        ([Matrix.identity(1), "x"], "basis element 2 is not a Matrix: 'x'"),
    ], ids=["empty", "mixed-shapes", "rank-0", "not-matrices", "second-not-matrix"])
    def test_malformed_basis_rejected(self, basis, text):
        with pytest.raises(ConfigurationError, match=text):
            check_projection(basis, "frobenius", 10, 42)


class TestDemos:
    def test_three_failing_reports_with_witnesses(self):
        reports = demo_counterexamples()
        assert [r.axiom for r in reports] == ["Q4", "Q5", "Q3xTR"]
        assert all(r.verdict == "fails" for r in reports)
        assert all(r.counterexample is not None for r in reports)

    def test_multiplicativity_demo_has_zero_product_witness(self):
        report = demo_counterexamples()[0]
        values = report.counterexample.values()
        assert (values["A"] @ values["C"]).is_zero()
        assert report.detail("product_of_divisors_is_zero") is True
        assert report.detail("right_hand_side") == "undefined (zero divisor)"
        assert replay_counterexample(report) == report.max_residual > TOLERANCE

    def test_trace_demo_has_zero_trace_witness(self):
        report = demo_counterexamples()[1]
        values = report.counterexample.values()
        assert values["A"].trace() == 0
        assert values["M"].trace() == 4
        assert replay_counterexample(report) == report.max_residual > TOLERANCE

    def test_rank_gap_demo(self):
        report = demo_counterexamples()[2]
        assert report.detail("rank_under_trace_rule") == 4
        assert report.detail("rank_of_tensor_factorized_value") == 1
        assert replay_counterexample(report) == report.max_residual > TOLERANCE

    def test_demos_are_deterministic(self):
        first = [r.to_text() for r in demo_counterexamples()]
        second = [r.to_text() for r in demo_counterexamples()]
        assert first == second


SKEW_REALIZATION = weighted_realization(skew_weights)

# A failing report of every kind that checks draw: how to make it, the scheme
# its replay needs, and the trial of its counterexample at these seeds.
PINNED_FAILURES = [
    pytest.param(lambda: check_axiom("Q5R", "leopardi", 60, 42, 4), None, 58,
                 id="Q5R-leopardi"),
    pytest.param(lambda: check_axiom("Q5R", "frobenius", 60, 42, 4), None, 53,
                 id="Q5R-frobenius"),
    pytest.param(lambda: check_axiom("Q5R", "operator", 60, 42, 4), None, 15,
                 id="Q5R-operator"),
    pytest.param(lambda: check_weight_conditions(skew_weights, 40, 42),
                 QuotientScheme.weighted(skew_weights), 33, id="Wcond-skew"),
    pytest.param(lambda: check_realization_conditions(SKEW_REALIZATION, 40, 42),
                 SKEW_REALIZATION, 39, id="Rcond-skew"),
    pytest.param(lambda: check_projection(LOPSIDED_BASIS, "frobenius", 40, 42, 3), None, 17,
                 id="PROJ-lopsided"),
]


@pytest.mark.parametrize("make,scheme,trial", PINNED_FAILURES)
def test_failing_trials_are_pinned_and_replay_exactly(make, scheme, trial):
    report = make()
    assert report.verdict == "fails"
    assert report.counterexample.trial == trial
    assert replay_counterexample(report, scheme) == report.max_residual


# every descriptor string a report may record, old and new
DESCRIPTORS = ["leopardi", "frobenius", "operator", "trace",
               "uniform(leopardi)", "uniform(frobenius)", "uniform(operator)", "uniform(trace)",
               "weighted(leopardi_weights)", "weighted(frobenius_weights)"]
# spanning, with nonzero traces, and not biorthonormal under any built-in Q
NONZERO_TRACE_BASIS = [Matrix.identity(2), Matrix.unit(2, 2, 1, 1),
                       Matrix.from_rows([[1, 1], [0, 0]]), Matrix.from_rows([[1, 0], [1, 0]])]


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_every_descriptor_replays_and_resolves_again(descriptor):
    # the trace rule satisfies Q5R, so only its projection report fails
    reports = [check_projection(NONZERO_TRACE_BASIS, descriptor, 20, 42, 3)]
    if "trace" not in descriptor:
        reports.append(check_axiom("Q5R", descriptor, 20, 42, 3))
    canonical = resolve_scheme(descriptor).describe()
    for report in reports:
        assert report.verdict == "fails"
        assert report.scheme == canonical
        # the report replays under the string it was checked with, under the
        # descriptor it records, and as an old report that recorded that string
        assert replay_counterexample(report, descriptor) == report.max_residual
        assert replay_counterexample(report) == report.max_residual
        old = dataclasses.replace(report, scheme=descriptor)
        assert replay_counterexample(old) == report.max_residual
    # the recorded descriptor names the same scheme: the checks repeat bit for bit
    assert resolve_scheme(canonical).describe() == canonical
    again = [check_projection(NONZERO_TRACE_BASIS, canonical, 20, 42, 3)]
    if "trace" not in descriptor:
        again.append(check_axiom("Q5R", canonical, 20, 42, 3))
    assert [r.to_json() for r in again] == [r.to_json() for r in reports]


def test_replay_requires_counterexample():
    report = check_axiom("Q1", "leopardi", 10, 42, 3)
    assert report.holds
    with pytest.raises(ConfigurationError):
        replay_counterexample(report)


def test_replay_rejects_a_doctored_report():
    report = check_axiom("Q5R", "frobenius", 20, 42, 3)
    with pytest.raises(ConfigurationError, match="cannot replay axiom 'Q9'"):
        replay_counterexample(dataclasses.replace(report, axiom="Q9"))
    inputs = (("A", to_line(Matrix.identity(2))), ("M", to_line(Matrix.identity(3))))
    doctored = dataclasses.replace(report, axiom="Q1", counterexample=Counterexample(
        trial=0, residual=1.0, inputs=inputs))
    with pytest.raises(ConfigurationError, match="3x3 is not block-compatible with divisor 2x2"):
        replay_counterexample(doctored)


LEOPARDI_Q = BUILTIN_SCHEMES["leopardi"].q_of


class TestRecordedDescriptor:
    """No check records a descriptor that resolves to a rule other than the one it
    evaluated, so a replay without ``scheme=`` never evaluates the wrong rule."""

    def test_a_label_naming_another_rule_is_rejected(self):
        impostor = Realization(LEOPARDI_Q, "frobenius", support_sensitive=True)
        checks = [partial(check_axiom, "Q5R", impostor),
                  partial(check_realization_conditions, impostor),
                  partial(check_projection, UNIT_BASIS, impostor)]
        for check in checks:
            with pytest.raises(ConfigurationError, match="label 'frobenius'"):
                check(20, 42, 3)

        def rule(a):
            return frobenius_weights(a)

        rule.__name__ = "leopardi_weights"
        with pytest.raises(ConfigurationError, match="label 'leopardi_weights'"):
            check_weight_conditions(rule, 20, 42, 3)

    def test_relabelled_the_rule_replays_only_as_itself(self):
        relabelled = Realization(LEOPARDI_Q, "mine", support_sensitive=True)
        report = check_axiom("Q5R", relabelled, 20, 42, 3)
        assert report.scheme == "uniform(mine)"
        assert report.max_residual == 1.7607529597249447
        assert replay_counterexample(report, relabelled) == report.max_residual
        with pytest.raises(ConfigurationError, match="unknown scheme 'uniform\\(mine\\)'"):
            replay_counterexample(report)

    @pytest.mark.parametrize("name", ["operator", "trace"])
    def test_an_equal_copy_of_a_builtin_checks(self, name):
        copy = dataclasses.replace(BUILTIN_SCHEMES[name], support_sensitive=False)
        assert copy == BUILTIN_SCHEMES[name] and copy is not BUILTIN_SCHEMES[name]
        report = check_axiom("Q1", copy, 20, 42, 3)
        assert report.scheme == f"uniform({name})"
        assert dataclasses.replace(report, scheme=name) == check_axiom("Q1", name, 20, 42, 3)
        assert check_realization_conditions(name, 20, 42, 3).scheme == name

    def test_a_weighted_rule_replays_under_its_descriptor(self):
        scheme = weighted_realization(leopardi_weights)
        report = check_axiom("Q5R", scheme, 20, 42, 3)
        assert report.scheme == "weighted(leopardi_weights)"
        assert resolve_scheme(report.scheme) is not scheme
        assert replay_counterexample(report) == report.max_residual
        assert replay_counterexample(report, scheme) == report.max_residual


class TestIffConsistencyAtFullTrials:
    """The characterization cross-checks must never come out one-sided."""

    IFF_KEYS = ("transpose_iff_q1", "scale_iff_q2b", "kron_iff_q3", "iff_consistent")

    def assert_two_sided(self, report):
        for key, value in report.details:
            if key in self.IFF_KEYS:
                assert value is True, f"{report.axiom}/{report.scheme}: {key} one-sided"

    @pytest.mark.parametrize("rule", [leopardi_weights, frobenius_weights, skew_weights])
    def test_weight_rules(self, rule):
        self.assert_two_sided(check_weight_conditions(rule, 200, 42))

    def test_realizations(self):
        for realization in (realization_for("frobenius"), realization_for("trace"),
                            realization_for("operator")):
            self.assert_two_sided(check_realization_conditions(realization, 200, 42))

    def test_projection_bases(self):
        self.assert_two_sided(check_projection(UNIT_BASIS, "frobenius", 200, 42, 4))
        self.assert_two_sided(check_projection(LOPSIDED_BASIS, "frobenius", 200, 42, 4))


class TestOperatorSchemeEmpiricalStatus:
    """Measured, not proven: under this build's fixed decomposition
    convention the operator quotient passes the main axioms at seed 42."""

    @pytest.mark.parametrize("axiom", ["Q1", "Q2a", "Q2b", "Q3"])
    def test_main_axioms_hold_at_200_trials(self, axiom):
        dims = 3 if axiom == "Q3" else 4
        report = check_axiom(axiom, "operator", 200, 42, dims)
        assert report.holds, report.to_text()
