"""Quotient schemes: worked values, round trips, realizations, remainders."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

import kronquot.quotients as quotients
from kronquot.quotients import BUILTIN_SCHEMES, resolve_scheme
from kronquot import (
    ConfigurationError,
    Divisor,
    FactorShape,
    InvalidFamilyError,
    InvalidRealizationError,
    InvalidWeightsError,
    KronError,
    Matrix,
    QuotientScheme,
    Realization,
    ShapeError,
    TOLERANCE,
    SingularRealizationError,
    UnsupportedInputError,
    ZeroDivisorError,
    block,
    check_axiom,
    check_projection,
    check_realization_conditions,
    frobenius_weights,
    is_divisor,
    kron,
    left_quotient,
    leopardi_weights,
    pfp,
    pfp_scalar,
    realization_for,
    realize,
    relative_residual,
    remainder,
    right_quotient,
    trace_realization,
    weighted_realization,
)
from kronquot.singular import svd
from oracles import (
    NzIndex,
    allclose,
    family_from_realization,
    perfect_shuffle,
    shuffle_by_index,
    vanloan_factor,
)

# a basis of the 2x2 matrices, and one whose elements all have nonzero trace
_UNIT_BASIS = [Matrix.unit(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
_TRACE_BASIS = [Matrix.unit(2, 2, 1, 1), Matrix.unit(2, 2, 2, 2),
                Matrix.from_rows([[1, 1], [0, 0]]), Matrix.from_rows([[1, 0], [1, 0]])]

SCHEMES = {
    "leopardi": QuotientScheme.leopardi(),
    "frobenius": QuotientScheme.frobenius(),
    "operator": QuotientScheme.operator(),
    "trace": QuotientScheme.trace(),
}


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


class TestNzIndex:
    def test_positions_and_count(self):
        nz = NzIndex.of(Matrix.from_rows([[1, 0], [0, 2]]))
        assert nz.positions == frozenset({(1, 1), (2, 2)})
        assert nz.count == 2

    def test_subnormal_squashing(self):
        nz = NzIndex.of(Matrix.from_rows([[1e-310, 1.0]]))
        assert nz.positions == frozenset({(1, 2)})


class TestLeopardi:
    def test_round_trip_diagonal(self):
        rng = np.random.default_rng(51)
        a = Matrix.diagonal([1, 2])
        b = random_matrix(rng, 2, 3)
        got = left_quotient("leopardi", a, kron(a, b), FactorShape(2, 2, 2, 3))
        assert relative_residual(got, b) < 1e-14

    def test_worked_block_average(self):
        a = Matrix.diagonal([2, 4])
        m = Matrix.from_rows([[2, 0, 0, 0],
                              [0, 2, 0, 0],
                              [0, 0, 8, 0],
                              [0, 0, 0, 8]])
        got = left_quotient("leopardi", a, m, FactorShape(2, 2, 2, 2))
        assert got == Matrix.diagonal([1.5, 1.5])

    def test_single_entry_divisor(self):
        rng = np.random.default_rng(52)
        m = random_matrix(rng, 3, 3)
        got = left_quotient("leopardi", Matrix.from_rows([[5]]), m, FactorShape(1, 1, 3, 3))
        assert allclose(got, m / 5)

    def test_factors_through_the_pairing(self):
        # with M = kron(C, B): quotient = pfp_scalar(Q(A), C) * B = 2.25 B here
        rng = np.random.default_rng(53)
        a = Matrix.diagonal([1, 2])
        c = Matrix.from_rows([[3, 1], [1, 3]])
        b = random_matrix(rng, 2, 2)
        got = left_quotient("leopardi", a, kron(c, b), FactorShape(2, 2, 2, 2))
        assert allclose(got, 2.25 * b)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisorError):
            left_quotient("leopardi", Matrix.zero(2, 2), Matrix.zero(4, 4),
                          FactorShape(2, 2, 2, 2))

    def test_ignores_zero_entries(self):
        rng = np.random.default_rng(54)
        a = Matrix.from_rows([[1, 0], [0, 2]])
        b = random_matrix(rng, 2, 2)
        got = left_quotient("leopardi", a, kron(a, b), FactorShape(2, 2, 2, 2))
        assert relative_residual(got, b) < 1e-14


class TestWeighted:
    def test_uniform_weights_match_leopardi(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            a = random_nonzero(rng, 2, 3)
            m = random_matrix(rng, 4, 9)
            shape = FactorShape(2, 3, 2, 3)
            weighted = QuotientScheme.weighted(leopardi_weights)
            assert allclose(left_quotient(weighted, a, m, shape),
                            left_quotient("leopardi", a, m, shape))

    def test_energy_weights_match_frobenius(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            a = random_nonzero(rng, 3, 2)
            m = random_matrix(rng, 6, 4)
            shape = FactorShape(3, 2, 2, 2)
            weighted = QuotientScheme.weighted(frobenius_weights)
            assert allclose(left_quotient(weighted, a, m, shape),
                            left_quotient("frobenius", a, m, shape))

    def test_concentrated_weight_reads_one_block(self):
        def spike(a):
            w = np.zeros((a.rows, a.cols), dtype=complex)
            w[0, 1] = 1.0
            return Matrix.from_array(w)

        rng = np.random.default_rng(57)
        a = Matrix.from_rows([[0, 2], [3, 4]])
        m = random_matrix(rng, 4, 4)
        got = left_quotient(QuotientScheme.weighted(spike), a, m, FactorShape(2, 2, 2, 2))
        want = Matrix.from_array(m.to_array()[0:2, 2:4]) / 2
        assert allclose(got, want)

    def test_bad_weight_sum_rejected(self):
        def lopsided(a):
            return Matrix.from_array(2 * leopardi_weights(a).to_array())

        with pytest.raises(InvalidWeightsError):
            left_quotient(QuotientScheme.weighted(lopsided), Matrix.identity(2),
                          Matrix.identity(4), FactorShape(2, 2, 2, 2))

    def test_weight_off_support_rejected(self):
        def everywhere(a):
            return Matrix.from_array(np.full((a.rows, a.cols), 0.25))

        a = Matrix.from_rows([[1, 0], [0, 1]])  # weights on the zeros are illegal
        with pytest.raises(InvalidWeightsError):
            left_quotient(QuotientScheme.weighted(everywhere), a, Matrix.identity(4),
                          FactorShape(2, 2, 2, 2))


class TestFrobenius:
    def test_round_trip(self):
        rng = np.random.default_rng(58)
        a = random_nonzero(rng, 2, 2)
        b = random_matrix(rng, 3, 2)
        got = left_quotient("frobenius", a, kron(a, b), FactorShape(2, 2, 3, 2))
        assert relative_residual(got, b) < 1e-13

    def test_conjugation_in_the_realization(self):
        got = left_quotient("frobenius", Matrix.from_rows([[1j]]), Matrix.from_rows([[2j]]),
                            FactorShape(1, 1, 1, 1))
        assert got == Matrix.from_rows([[2]])

    def test_column_average_worked_value(self):
        got = left_quotient("frobenius", Matrix.from_rows([[1], [1]]),
                            Matrix.from_rows([[2], [4]]), FactorShape(2, 1, 1, 1))
        assert allclose(got, Matrix.from_rows([[3]]))

    def test_agrees_with_vanloan_on_real_data(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            a = random_matrix(rng, 2, 2, real=True)
            m = random_matrix(rng, 4, 4, real=True)
            shape = FactorShape(2, 2, 2, 2)
            diff = relative_residual(vanloan_factor(a, m, shape),
                                     left_quotient("frobenius", a, m, shape))
            assert diff < 1e-10


class TestVanLoan:
    def test_worked_value(self):
        got = vanloan_factor(Matrix.from_rows([[1], [1]]), Matrix.from_rows([[2], [4]]),
                             FactorShape(2, 1, 1, 1))
        assert allclose(got, Matrix.from_rows([[3]]))

    def test_recovers_kron_factor(self):
        rng = np.random.default_rng(60)
        a = random_matrix(rng, 2, 3, real=True)
        b = random_matrix(rng, 3, 2, real=True)
        got = vanloan_factor(a, kron(a, b), FactorShape(2, 3, 3, 2))
        assert relative_residual(got, b) < 1e-13

    def test_rejects_complex_input(self):
        with pytest.raises(UnsupportedInputError):
            vanloan_factor(Matrix.from_rows([[1j]]), Matrix.from_rows([[1]]),
                           FactorShape(1, 1, 1, 1))
        with pytest.raises(UnsupportedInputError):
            vanloan_factor(Matrix.from_rows([[1.0]]), Matrix.from_rows([[1j]]),
                           FactorShape(1, 1, 1, 1))


class TestOperator:
    def test_round_trip_diagonal(self):
        rng = np.random.default_rng(61)
        a = Matrix.diagonal([2, 1])
        b = random_matrix(rng, 2, 2)
        got = left_quotient("operator", a, kron(a, b), FactorShape(2, 2, 2, 2))
        assert relative_residual(got, b) < 1e-12

    def test_realization_of_nilpotent(self):
        q = realization_for("operator").q_of(Matrix.from_rows([[0, 2], [0, 0]]))
        assert allclose(q, Matrix.from_rows([[0, 0.5], [0, 0]]))

    def test_reads_only_the_leading_block(self):
        rng = np.random.default_rng(62)
        a = Matrix.diagonal([2, 1])
        c = Matrix.diagonal([4, 100])
        b = random_matrix(rng, 2, 2)
        got = left_quotient("operator", a, kron(c, b), FactorShape(2, 2, 2, 2))
        assert allclose(got, 2 * b)  # pairing sees only C[1,1]/sigma1 = 4/2


class TestTrace:
    def test_all_ones_realization(self):
        assert trace_realization(Matrix.ones(4, 4)) == Matrix.identity(4) / 4
        assert trace_realization(Matrix.ones(2, 2)) == Matrix.identity(2) / 2

    def test_zero_trace_rejected(self):
        with pytest.raises(SingularRealizationError):
            trace_realization(Matrix.diagonal([1, -1]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            trace_realization(Matrix.zero(2, 3))

    def test_trace_product_rule_on_free_matrices(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            a = random_nonzero(rng, 3, 3, need_trace=True)
            m = random_matrix(rng, 6, 6)
            q = left_quotient(SCHEMES["trace"], a, m, FactorShape(3, 3, 2, 2))
            assert abs(m.trace() - a.trace() * q.trace()) <= 1e-10 * max(1.0, abs(m.trace()))


class TestUniform:
    def test_round_trip_through_trace_realization(self):
        rng = np.random.default_rng(64)
        a = Matrix.ones(4, 4)
        b = random_matrix(rng, 2, 2)
        got = left_quotient(realization_for("trace"), a, kron(a, b),
                            FactorShape(4, 4, 2, 2))
        assert relative_residual(got, b) < 1e-13

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
    def test_realization_recovery_from_unit_matrices(self, name):
        # pairing with unit matrices reads Q(A) back entry by entry
        rng = np.random.default_rng(65)
        scheme = SCHEMES[name]
        a = random_nonzero(rng, 3, 3, need_trace=(name == "trace"))
        q = realization_for(scheme).q_of(a)
        recovered = np.zeros((3, 3), dtype=complex)
        for j in range(1, 4):
            for k in range(1, 4):
                cell = left_quotient(scheme, a, Matrix.unit(3, 3, j, k),
                                     FactorShape(3, 3, 1, 1))
                recovered[j - 1, k - 1] = cell.entry(1, 1)
        assert relative_residual(Matrix.from_array(recovered), q) < 1e-10

    def test_frobenius_realization_reproduces_scheme(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            a = random_nonzero(rng, 2, 3)
            m = random_matrix(rng, 4, 6)
            shape = FactorShape(2, 3, 2, 2)
            assert allclose(left_quotient(realization_for("frobenius"), a, m, shape),
                            left_quotient("frobenius", a, m, shape))

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
    def test_factor_through_property(self, name):
        rng = np.random.default_rng(67)
        scheme = SCHEMES[name]
        a = random_nonzero(rng, 2, 2, need_trace=(name == "trace"))
        c = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 3, 2)
        got = left_quotient(scheme, a, kron(c, b), FactorShape(2, 2, 3, 2))
        weight = pfp_scalar(realization_for(scheme).q_of(a), c)
        assert allclose(got, weight * b)

    def test_invalid_realization_rejected(self):
        doubled = Realization(lambda a: 2 * realization_for("frobenius").q_of(a), "doubled")
        with pytest.raises(InvalidRealizationError):
            left_quotient(doubled, Matrix.identity(2), Matrix.identity(4),
                          FactorShape(2, 2, 2, 2))


class TestLinear:
    def test_diagonal_family_matches_uniform(self):
        rng = np.random.default_rng(68)
        fam = family_from_realization(realization_for("frobenius"))
        for _ in range(10):
            a = random_nonzero(rng, 2, 2)
            m = random_matrix(rng, 4, 6)
            shape = FactorShape(2, 2, 2, 3)
            assert allclose(left_quotient(QuotientScheme.linear(fam), a, m, shape),
                            left_quotient("frobenius", a, m, shape))

    def test_off_diagonal_component_activates_on_remainders(self):
        a = Matrix.identity(2)
        skew = Matrix.diagonal([1, -1])  # pairs to 0 against the identity
        assert pfp_scalar(skew, a) == 0

        def family(mat, s, t):
            base = dict(family_from_realization(realization_for("frobenius"))(mat, s, t))
            base[(1, 1, 2, 2)] = skew
            return base

        rng = np.random.default_rng(69)
        b = random_matrix(rng, 2, 2)
        shape = FactorShape(2, 2, 2, 2)
        # round trip unaffected: the extra component is invisible on kron(a, .)
        assert relative_residual(left_quotient(QuotientScheme.linear(family), a, kron(a, b), shape),
                                 b) < 1e-13
        # on a matrix with a remainder part the component feeds entry (2, 2)
        m = kron(a, b) + Matrix.unit(4, 4, 1, 1)
        full = left_quotient(QuotientScheme.linear(family), a, m, shape)
        diagonal_only = left_quotient(
            QuotientScheme.linear(family_from_realization(realization_for("frobenius"))),
            a, m, shape)
        activation = pfp(skew, m).entry(1, 1)
        assert allclose(full - diagonal_only, activation * Matrix.unit(2, 2, 2, 2))

    def test_zero_rule_is_exact_like_the_uniform_path(self):
        # ||A||_F of 2^-600 underflows to 0, but A is not zero: both paths divide
        tiny = Matrix.from_rows([[2.0 ** -600]])
        m = Matrix.from_rows([[3 * 2.0 ** -600]])
        shape = FactorShape(1, 1, 1, 1)
        family = {(1, 1, 1, 1): Matrix.from_rows([[2.0 ** 600]])}
        assert left_quotient(QuotientScheme.linear(lambda a, s, t: family), tiny, m, shape) \
            == Matrix.from_rows([[3]])
        assert left_quotient("leopardi", tiny, m, shape) == Matrix.from_rows([[3]])
        with pytest.raises(ZeroDivisorError):
            left_quotient(QuotientScheme.linear(lambda a, s, t: family), Matrix.zero(1, 1), m,
                          shape)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCHEMES))
    def test_diagonal_family_keeps_the_uniform_bytes(self, name):
        # each entry is one component's pairing over its block row, summed in the
        # order of the full pairing, so the linear path gives the uniform bytes
        linear = QuotientScheme.linear(family_from_realization(BUILTIN_SCHEMES[name]))
        rng = np.random.default_rng(72)
        for _ in range(50):
            m, n, s, t = (int(x) for x in rng.integers(1, 6, 4))
            if name == "trace":
                n, t = m, s
            shape = FactorShape(m, n, s, t)
            a = random_nonzero(rng, m, n, need_trace=name == "trace")
            b = random_nonzero(rng, s, t, need_trace=name == "trace")
            mat = random_matrix(rng, m * s, n * t)
            for scheme_op in (lambda scheme: left_quotient(scheme, a, mat, shape),
                              lambda scheme: right_quotient(scheme, mat, b, shape)):
                assert (scheme_op(linear).to_array().tobytes()
                        == scheme_op(name).to_array().tobytes()), (name, shape)

    def test_zero_family_rejected_with_component_named(self):
        with pytest.raises(InvalidFamilyError, match=r"\(1,1,1,1\)"):
            left_quotient(QuotientScheme.linear(lambda a, s, t: {}), Matrix.identity(2),
                          Matrix.identity(4), FactorShape(2, 2, 2, 2))


class TestDispatchAndErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            left_quotient(SCHEMES["leopardi"], Matrix.identity(2), Matrix.identity(4),
                          FactorShape(2, 2, 3, 2))
        with pytest.raises(ShapeError):
            left_quotient(SCHEMES["leopardi"], Matrix.identity(3), Matrix.identity(4),
                          FactorShape(2, 2, 2, 2))

    @pytest.mark.parametrize("call", [
        lambda a, m, shape: left_quotient("frobenius", a, m, shape),
        lambda a, m, shape: right_quotient("frobenius", m, a, shape),
        lambda a, m, shape: remainder("frobenius", a, m, shape),
        lambda a, m, shape: is_divisor("frobenius", a, m, shape),
        lambda a, m, shape: realize("frobenius", a).quotient(m, shape),
        lambda a, m, shape: realize(QuotientScheme.linear(
            family_from_realization(realization_for("frobenius"))), a).quotient(m, shape),
        lambda a, m, shape: block(m, shape, 1, 1),
    ], ids=["left_quotient", "right_quotient", "remainder", "is_divisor", "Divisor.quotient",
            "LinearDivisor.quotient", "block"])
    def test_a_tuple_shape_is_refused(self, call):
        with pytest.raises(UnsupportedInputError,
                           match=r"^shape must be a FactorShape, got \(2, 2, 2, 2\)$"):
            call(Matrix.identity(2), Matrix.identity(4), (2, 2, 2, 2))

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator"])
    def test_zero_divisor_everywhere(self, name):
        with pytest.raises(ZeroDivisorError):
            left_quotient(SCHEMES[name], Matrix.zero(2, 2), Matrix.zero(4, 4),
                          FactorShape(2, 2, 2, 2))

    @pytest.mark.parametrize("rule", [leopardi_weights, frobenius_weights,
                                      BUILTIN_SCHEMES["frobenius"].q_of])
    def test_rules_called_directly_reject_the_zero_matrix(self, rule):
        with pytest.raises(ZeroDivisorError):
            rule(Matrix.zero(2, 3))

    def test_trace_scheme_domain(self):
        with pytest.raises(SingularRealizationError):
            left_quotient(SCHEMES["trace"], Matrix.diagonal([1, -1]), Matrix.identity(4),
                          FactorShape(2, 2, 2, 2))

    def test_realization_accepted_directly(self):
        rng = np.random.default_rng(70)
        a = random_nonzero(rng, 2, 2)
        m = random_matrix(rng, 4, 4)
        shape = FactorShape(2, 2, 2, 2)
        assert allclose(left_quotient(realization_for("leopardi"), a, m, shape),
                        left_quotient("leopardi", a, m, shape))


    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
    def test_every_naming_form_agrees(self, name):
        # a built-in name, its QuotientScheme call, its realization and its
        # uniform(...) descriptor are one scheme
        rng = np.random.default_rng(83)
        a = random_nonzero(rng, 2, 2, need_trace=True)
        b = random_nonzero(rng, 2, 2, need_trace=True)
        exact = kron(a, b)
        noisy = exact + random_matrix(rng, 4, 4)
        shape = FactorShape(2, 2, 2, 2)
        forms = [name, getattr(QuotientScheme, name)(), BUILTIN_SCHEMES[name],
                 realization_for(name), f"uniform({name})"]
        # the registry holds the scheme itself: every form resolves to that one record
        assert getattr(QuotientScheme, name)() is BUILTIN_SCHEMES[name]
        for scheme in forms:
            assert resolve_scheme(scheme) is BUILTIN_SCHEMES[name]

        def results(scheme):
            return ([op(scheme, a, mat, shape).to_array().tobytes()
                     for op in (left_quotient, remainder) for mat in (exact, noisy)]
                    + [right_quotient(scheme, mat, b, shape).to_array().tobytes()
                       for mat in (exact, noisy)]
                    + [is_divisor(scheme, a, mat, shape) for mat in (exact, noisy)])

        first = results(forms[0])
        assert first[-2:] == [True, False]
        for scheme in forms[1:]:
            assert results(scheme) == first

        # and every form records the bare name in every report
        basis = _TRACE_BASIS if name == "trace" else _UNIT_BASIS

        def reports(scheme):
            return [check_axiom("Q1", scheme, 4, 42, 3),
                    check_projection(basis, scheme, 4, 42, 3),
                    check_realization_conditions(scheme, 4, 42, 3)]

        first = [report.to_json() for report in reports(forms[0])]
        for scheme in forms:
            got = reports(scheme)
            assert [report.scheme for report in got] == [name] * 3
            assert [report.to_json() for report in got] == first

    def test_declared_weights(self):
        declared = {name: realization.weights for name, realization in BUILTIN_SCHEMES.items()}
        assert declared == {"leopardi": leopardi_weights, "frobenius": frobenius_weights,
                            "operator": None, "trace": None}
        assert realization_for("weighted(leopardi_weights)").weights is leopardi_weights
        assert realization_for(QuotientScheme.weighted(frobenius_weights)).weights \
            is frobenius_weights

    def test_unknown_name_rejected_by_name(self):
        a, m, shape = Matrix.identity(2), Matrix.identity(4), FactorShape(2, 2, 2, 2)
        for op in (left_quotient, remainder, is_divisor):
            with pytest.raises(ConfigurationError, match="nonesuch"):
                op("nonesuch", a, m, shape)
        with pytest.raises(ConfigurationError, match="nonesuch"):
            right_quotient("nonesuch", m, a, shape)
        with pytest.raises(ConfigurationError, match="nonesuch"):
            realization_for("nonesuch")


class TestRealize:
    """realize(scheme, A).quotient(M, shape) is left_quotient with A realized once."""

    SCHEMES = {
        **{name: name for name in BUILTIN_SCHEMES},
        "weighted": QuotientScheme.weighted(frobenius_weights, name="energy"),
        "custom": Realization(lambda a: a.conjugate() / pfp_scalar(a.conjugate(), a), "custom"),
    }

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_bit_identical_to_left_quotient(self, name):
        scheme = self.SCHEMES[name]
        square = name == "trace"
        rng = np.random.default_rng(84)
        for _ in range(20):
            m, s = (int(x) for x in rng.integers(1, 5, 2))
            n, t = (m, s) if square else (int(x) for x in rng.integers(1, 5, 2))
            a = random_nonzero(rng, m, n, need_trace=square)
            shape = FactorShape(m, n, s, t)
            divisor = realize(scheme, a)
            for dividend in (kron(a, random_matrix(rng, s, t)), random_matrix(rng, m * s, n * t)):
                assert divisor.quotient(dividend, shape) == left_quotient(scheme, a, dividend,
                                                                          shape)

    def test_holds_the_checked_realization(self):
        rng = np.random.default_rng(85)
        a = random_nonzero(rng, 3, 2)
        for name in ("leopardi", "frobenius", "operator"):
            divisor = realize(name, a)
            assert isinstance(divisor, Divisor)
            assert divisor.a is a
            assert divisor.q == BUILTIN_SCHEMES[name].q_of(a)
            assert divisor.unit == pfp_scalar(divisor.q, a)
            assert abs(divisor.unit - 1.0) <= quotients.REALIZATION_TOLERANCE
            assert (divisor.svd is not None) == (name == "operator")
        for scheme in ("operator", QuotientScheme.operator(),
                       BUILTIN_SCHEMES["operator"]):
            assert realize(scheme, a).svd.sigma == svd(a).sigma
        # divisors compare by (a, q, unit); their SvdResults, compared by identity, take no part
        assert realize("operator", a) == realize("operator", a)
        assert realize("operator", a) != realize("operator", 2 * a)

    def test_linear_scheme_realizes_a_linear_divisor(self):
        scheme = QuotientScheme.linear(family_from_realization(realization_for("operator")))
        rng = np.random.default_rng(87)
        for _ in range(10):
            m, n, s, t = (int(x) for x in rng.integers(1, 4, 4))
            a = random_nonzero(rng, m, n)
            shape = FactorShape(m, n, s, t)
            divisor = realize(scheme, a)
            assert isinstance(divisor, quotients.LinearDivisor)
            assert divisor.a is a and divisor.svd is None
            for dividend in (kron(a, random_matrix(rng, s, t)), random_matrix(rng, m * s, n * t)):
                assert divisor.quotient(dividend, shape) == left_quotient(scheme, a, dividend,
                                                                          shape)
        with pytest.raises(ZeroDivisorError):
            realize(scheme, Matrix.zero(2, 2))

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_errors_match_left_quotient(self, name):
        scheme = self.SCHEMES[name]
        a, shape = Matrix.identity(2), FactorShape(2, 2, 2, 2)
        m = Matrix.ones(4, 4)
        cases = [
            (ZeroDivisorError, lambda: realize(scheme, Matrix.zero(2, 2)),
             lambda: left_quotient(scheme, Matrix.zero(2, 2), m, shape)),
            (ShapeError, lambda: realize(scheme, a).quotient(m, FactorShape(1, 4, 4, 1)),
             lambda: left_quotient(scheme, a, m, FactorShape(1, 4, 4, 1))),
            (ShapeError, lambda: realize(scheme, a).quotient(Matrix.ones(4, 6), shape),
             lambda: left_quotient(scheme, a, Matrix.ones(4, 6), shape)),
        ]
        for error, via_realize, via_left_quotient in cases:
            with pytest.raises(error):
                via_realize()
            with pytest.raises(error):
                via_left_quotient()

    def test_unpaired_realization_rejected_by_both(self):
        doubled = Realization(lambda a: 2 * a.conjugate() / pfp_scalar(a.conjugate(), a))
        a = Matrix.identity(2)
        with pytest.raises(InvalidRealizationError):
            realize(doubled, a)
        with pytest.raises(InvalidRealizationError):
            left_quotient(doubled, a, Matrix.ones(4, 4), FactorShape(2, 2, 2, 2))

    @pytest.mark.parametrize("name", list(BUILTIN_SCHEMES))
    def test_overflowing_q_is_a_typed_error(self, name):
        # every nonzero entry is subnormal: Q(A) ~ 1/1e-310 overflows binary64
        a = Matrix.from_rows([[1e-310, 0], [0, 0]])
        with pytest.raises(UnsupportedInputError, match="2x2 divisor overflows"):
            realize(name, a)
        with pytest.raises(UnsupportedInputError, match="2x2 divisor overflows"):
            left_quotient(name, a, Matrix.ones(4, 4), FactorShape(2, 2, 2, 2))
        # the realization called directly, as check_realization_conditions calls it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedInputError, match="2x2 divisor overflows"):
                BUILTIN_SCHEMES[name].q_of(a)

    @pytest.mark.parametrize("realization", [
        Realization(lambda a: Matrix.from_array(np.full(a.shape, np.inf + 0j)), "inf-rule"),
        weighted_realization(lambda a: Matrix.from_array(np.full(a.shape, np.inf + 0j)),
                             "inf-rule"),
    ], ids=["q_of", "weight-rule"])
    def test_a_callers_rule_that_builds_a_non_finite_matrix_is_named(self, realization):
        # the rule is at fault, not the divisor: the message names the rule's label
        message = "realization 'inf-rule' built a non-finite matrix for Q(A) of the 2x2 divisor"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: realize(realization, Matrix.identity(2)),
                         lambda: left_quotient(realization, Matrix.identity(2),
                                               Matrix.ones(4, 4), FactorShape(2, 2, 2, 2))):
                with pytest.raises(UnsupportedInputError, match=f"^{re.escape(message)}$"):
                    call()

    def test_weight_rule_on_a_subnormal_divisor_names_it(self):
        # nonzero, but no entry is normal: not the zero matrix's error
        with pytest.raises(UnsupportedInputError,
                           match=r"^cannot weight the 2x3 divisor: .* all subnormal$"):
            leopardi_weights(Matrix.from_rows([[1e-310, 0, 0], [0, -5e-324j, 0]]))
        with pytest.raises(ZeroDivisorError, match="^cannot weight the zero matrix$"):
            leopardi_weights(Matrix.zero(2, 3))


def _family(components):
    return QuotientScheme.linear(lambda a, s, t: components)


_DIAGONAL = {(u, v, u, v): Matrix.identity(2) / 2 for u in (1, 2) for v in (1, 2)}


@pytest.mark.parametrize("changes,message", [
    ({(2, 2, 2, 2): None, (2, 1, 1, 2): Matrix.identity(2)},
     "component (2,1,1,2) pairs to (2+0j) against the divisor, expected 0.0"),
    ({(1, 2, 1, 2): None, (2, 1, 1, 1): Matrix.identity(2)},
     "component (1,2,1,2) pairs to 0.0 against the divisor, expected 1.0"),
    ({(2, 2, 2, 2): 2 * Matrix.identity(2), (1, 2, 2, 1): Matrix.unit(2, 2, 1, 1),
      (1, 1, 2, 2): Matrix.unit(2, 2, 2, 2)},
     "component (1,1,2,2) pairs to (1+0j) against the divisor, expected 0.0"),
    ({(1, 1, 1, 1): None, (2, 2, 2, 2): None},
     "component (1,1,1,1) pairs to 0.0 against the divisor, expected 1.0"),
])
def test_linear_family_reports_its_first_fault(changes, message):
    """Of several faults, the first in (u,v,u',v') order, whatever the family's order."""
    components = {key: comp for key, comp in {**_DIAGONAL, **changes}.items() if comp is not None}
    for order in (list(components.items()), list(reversed(components.items()))):
        with pytest.raises(InvalidFamilyError) as info:
            left_quotient(_family(dict(order)), Matrix.identity(2), Matrix.identity(4),
                          FactorShape(2, 2, 2, 2))
        assert str(info.value) == message


# Error paths: a call, the typed error it raises, and what its message names.
ERROR_PATHS = [
    pytest.param(lambda: left_quotient(QuotientScheme.weighted(lambda a: Matrix.ones(3, 3)),
                                       Matrix.identity(2), Matrix.identity(4),
                                       FactorShape(2, 2, 2, 2)),
                 InvalidWeightsError, "3x3 matrix for a 2x2", id="weights-shape"),
    pytest.param(lambda: left_quotient(
        QuotientScheme.weighted(lambda a: Matrix.from_rows([[0.5, 0.5], [0, 0.5]])),
        Matrix.identity(2), Matrix.identity(4), FactorShape(2, 2, 2, 2)),
                 InvalidWeightsError, "weight on zero entries", id="weights-off-support"),
    pytest.param(lambda: left_quotient(_family({(3, 1, 1, 1): Matrix.identity(2)}),
                                       Matrix.identity(2), Matrix.identity(4),
                                       FactorShape(2, 2, 2, 2)),
                 InvalidFamilyError, r"\(3,1,1,1\) outside the 2x2 block size",
                 id="family-index"),
    pytest.param(lambda: left_quotient(_family({(1, 1, 1, 1): Matrix.identity(3)}),
                                       Matrix.identity(2), Matrix.identity(4),
                                       FactorShape(2, 2, 2, 2)),
                 InvalidFamilyError, r"\(1,1,1,1\) is 3x3, expected 2x2", id="family-shape"),
    pytest.param(lambda: realize(Realization(lambda a: Matrix.identity(3)), Matrix.identity(2)),
                 InvalidRealizationError, "divisor's shape", id="realization-shape"),
    pytest.param(lambda: resolve_scheme(42), ConfigurationError, "got 42", id="scheme-type"),
    pytest.param(lambda: weighted_realization(None), ConfigurationError,
                 "weighted scheme needs a weight rule, got None", id="weighted-no-rule"),
    pytest.param(lambda: QuotientScheme.linear(None), ConfigurationError,
                 "linear scheme needs a component family, got None", id="linear-no-family"),
    pytest.param(lambda: QuotientScheme.weighted("nope"), ConfigurationError,
                 "weighted scheme needs a weight rule, got 'nope'",
                 id="weighted-rule-not-callable"),
    pytest.param(lambda: QuotientScheme.linear("nope"), ConfigurationError,
                 "linear scheme needs a component family, got 'nope'",
                 id="linear-family-not-callable"),
]


@pytest.mark.parametrize("call,error,named", ERROR_PATHS)
def test_error_paths_name_the_fault(call, error, named):
    with pytest.raises(error, match=named):
        call()


# (m, n, s, t) with a 1 in each place; the trace scheme takes the square divisors
REMAINDER_SHAPES = [FactorShape(*dims) for dims in (
    (1, 1, 1, 1), (1, 3, 2, 2), (3, 1, 2, 3), (2, 3, 1, 2), (3, 2, 2, 1),
    (2, 2, 3, 3), (1, 1, 3, 2), (3, 3, 1, 1), (2, 2, 1, 4))]


class TestRemainder:
    @pytest.mark.parametrize("name,shape", [
        pytest.param(name, shape, id=f"{name}-{shape}") for name in SCHEMES
        for shape in REMAINDER_SHAPES if name != "trace" or shape.m == shape.n])
    def test_bytes_of_m_minus_kron_of_the_quotient(self, name, shape):
        # at scales where no rescale runs, the remainder takes the products and
        # differences of M - kron(A, C), bit for bit
        rng = np.random.default_rng(75)
        mm, nn, s, t = shape
        for _ in range(10):
            a = random_nonzero(rng, mm, nn, need_trace=(name == "trace"))
            m = random_matrix(rng, mm * s, nn * t)
            c = left_quotient(name, a, m, shape)
            want = (m - kron(a, c)).to_array()
            assert remainder(name, a, m, shape).to_array().tobytes() == want.tobytes()

    def test_exact_kron_has_zero_remainder(self):
        rng = np.random.default_rng(71)
        for name, scheme in SCHEMES.items():
            a = random_nonzero(rng, 2, 2, need_trace=(name == "trace"))
            b = random_matrix(rng, 2, 3)
            shape = FactorShape(2, 2, 2, 3)
            r = remainder(scheme, a, kron(a, b), shape)
            assert r.frobenius_norm() < 1e-12
            assert is_divisor(scheme, a, kron(a, b), shape)

    def test_identity_plus_corner_is_not_divisible(self):
        m = Matrix.identity(4) + Matrix.unit(4, 4, 1, 4)
        shape = FactorShape(2, 2, 2, 2)
        a = Matrix.identity(2)
        r = remainder(SCHEMES["frobenius"], a, m, shape)
        assert r == Matrix.unit(4, 4, 1, 4)  # the quotient explains the identity part only
        assert not is_divisor(SCHEMES["frobenius"], a, m, shape)

    def test_frobenius_remainder_is_pairing_orthogonal(self):
        rng = np.random.default_rng(72)
        for _ in range(15):
            a = random_nonzero(rng, 2, 3)
            m = random_matrix(rng, 4, 9)
            shape = FactorShape(2, 3, 2, 3)
            r = remainder(SCHEMES["frobenius"], a, m, shape)
            assert pfp(a.conjugate(), r).frobenius_norm() <= 1e-10 * max(1.0, m.frobenius_norm())


def _dyadic_divisor(rng, name, s, t):
    """A divisor whose Q(B) has power-of-two entries under scheme ``name``: a trace
    that is a power of two, or +-1 and +-1j entries on 2^p nonzero positions."""
    if name == "trace":
        diag = rng.integers(-3, 4, s)
        diag[-1] = 2 ** int(rng.integers(0, 3)) - diag[:-1].sum()
        return Matrix.diagonal(diag)
    size = s * t
    nonzero = 2 ** int(rng.integers(0, size.bit_length()))
    entries = np.zeros(size, dtype=complex)
    entries[rng.choice(size, nonzero, replace=False)] = rng.choice([1, -1, 1j, -1j], nonzero)
    return Matrix.from_array(entries.reshape(s, t))


class TestRightQuotient:
    def test_shuffle_matches_index_oracle(self):
        # on small-integer dividends and power-of-two Q(B) every product and sum is
        # exact, so the right quotient equals, bit for bit, the left quotient of the
        # dividend reindexed by the index oracle (the perfect shuffle)
        rng = np.random.default_rng(73)
        for name in ["leopardi", "frobenius", "trace"] * 20:
            m_dim, n_dim = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            s = int(rng.integers(1, 5))
            t = s if name == "trace" else int(rng.integers(1, 5))
            mat = Matrix.from_array(rng.integers(-9, 10, (m_dim * s, n_dim * t))
                                    + 1j * rng.integers(-9, 10, (m_dim * s, n_dim * t)))
            want = shuffle_by_index(mat, m_dim, s, n_dim, t)
            left = perfect_shuffle(m_dim, s) @ mat @ perfect_shuffle(n_dim, t).transpose()
            assert left == want
            b = _dyadic_divisor(rng, name, s, t)
            got = right_quotient(name, mat, b, FactorShape(m_dim, n_dim, s, t))
            assert got == left_quotient(name, b, want, FactorShape(s, t, m_dim, n_dim))

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace",
                                      "weighted", "linear"])
    def test_shuffled_left_quotient_within_ulps(self, name):
        if name == "weighted":
            scheme = QuotientScheme.weighted(frobenius_weights)
        elif name == "linear":
            scheme = QuotientScheme.linear(family_from_realization(realization_for("leopardi")))
        else:
            scheme = SCHEMES[name]
        rng = np.random.default_rng(86)
        for _ in range(50):
            m_dim, n_dim = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            s = int(rng.integers(1, 5))
            t = s if name == "trace" else int(rng.integers(1, 5))
            mat = random_matrix(rng, m_dim * s, n_dim * t)
            b = random_nonzero(rng, s, t, need_trace=(name == "trace"))
            got = right_quotient(scheme, mat, b, FactorShape(m_dim, n_dim, s, t))
            want = left_quotient(scheme, b, shuffle_by_index(mat, m_dim, s, n_dim, t),
                                 FactorShape(s, t, m_dim, n_dim))
            assert (got - want).frobenius_norm() <= 4 * np.finfo(float).eps * want.frobenius_norm()

    def test_shuffle_swaps_kron_factors(self):
        rng = np.random.default_rng(74)
        a = random_matrix(rng, 3, 2)
        b = random_matrix(rng, 2, 4)
        got = perfect_shuffle(3, 2) @ kron(a, b) @ perfect_shuffle(2, 4).transpose()
        assert relative_residual(got, kron(b, a)) < 1e-15

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
    def test_round_trip(self, name):
        rng = np.random.default_rng(75)
        scheme = SCHEMES[name]
        for _ in range(10):
            square = name == "trace"
            m_dim = int(rng.integers(1, 4))
            n_dim = m_dim if square else int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            t = s if square else int(rng.integers(1, 4))
            a = random_nonzero(rng, m_dim, n_dim, need_trace=square)
            b = random_nonzero(rng, s, t, need_trace=square)
            shape = FactorShape(m_dim, n_dim, s, t)
            got = right_quotient(scheme, kron(a, b), b, shape)
            assert relative_residual(got, a) < 1e-9

    def test_scalar_left_factor(self):
        rng = np.random.default_rng(76)
        b = random_nonzero(rng, 2, 2)
        m = kron(Matrix.from_rows([[2.5]]), b)
        got = right_quotient(SCHEMES["frobenius"], m, b, FactorShape(1, 1, 2, 2))
        assert allclose(got, Matrix.from_rows([[2.5]]))

    def test_divisor_shape_checked(self):
        with pytest.raises(ShapeError):
            right_quotient(SCHEMES["leopardi"], Matrix.identity(4), Matrix.identity(3),
                           FactorShape(2, 2, 2, 2))


class TestKernelConditions:
    """Spot checks of the kernel characterizations for linear quotients."""

    @pytest.mark.parametrize("name", ["leopardi", "frobenius"])
    def test_transposed_remainder_stays_in_the_kernel(self, name):
        # schemes compatible with transposition kill transposed remainders
        rng = np.random.default_rng(77)
        scheme = SCHEMES[name]
        for _ in range(10):
            a = random_nonzero(rng, 2, 3)
            m = random_matrix(rng, 4, 9)
            shape = FactorShape(2, 3, 2, 3)
            r = remainder(scheme, a, m, shape)
            back = left_quotient(scheme, a.transpose(), r.transpose(),
                                 FactorShape(3, 2, 3, 2))
            assert back.frobenius_norm() <= 1e-10 * max(1.0, m.frobenius_norm())

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
    def test_scaling_the_divisor_rescales_the_quotient(self, name):
        rng = np.random.default_rng(78)
        scheme = SCHEMES[name]
        for k in (2.0, -0.5, 2.0 + 0j, 1j, 1 + 1j):
            a = random_nonzero(rng, 2, 2, need_trace=(name == "trace"))
            m = random_matrix(rng, 4, 4)
            shape = FactorShape(2, 2, 2, 2)
            lhs = left_quotient(scheme, k * a, m, shape)
            rhs = left_quotient(scheme, a, m, shape) / k
            assert relative_residual(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace",
                                      "weighted", "linear"])
    def test_linearity_in_the_dividend(self, name):
        rng = np.random.default_rng(79)
        if name == "weighted":
            scheme = QuotientScheme.weighted(frobenius_weights)
        elif name == "linear":
            scheme = QuotientScheme.linear(family_from_realization(realization_for("leopardi")))
        else:
            scheme = SCHEMES[name]
        a = random_nonzero(rng, 2, 2, need_trace=(name == "trace"))
        m1 = random_matrix(rng, 4, 4)
        m2 = random_matrix(rng, 4, 4)
        shape = FactorShape(2, 2, 2, 2)
        alpha, beta = 1.5 - 0.5j, -2j
        lhs = left_quotient(scheme, a, alpha * m1 + beta * m2, shape)
        rhs = alpha * left_quotient(scheme, a, m1, shape) \
            + beta * left_quotient(scheme, a, m2, shape)
        assert relative_residual(lhs, rhs) < 1e-10


# Round trips at A = 2^e A0, e = -1000..1000 in steps of 50, for a real and a
# complex A0: per scheme, the exponent ranges (inclusive) that raise, and the
# typed error. Every other exponent must round-trip to 1e-9.
SCALE_DIVISORS = (np.array([[1, .5], [.25, 2]]), np.array([[1 + .5j, .5j], [.25, 2 - 1j]]))
SCALE_FAILURES = {
    "leopardi": [],
    "frobenius": [],
    "operator": [],
    "trace": [],
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["leopardi", "frobenius", "operator", "trace"])
def test_round_trip_across_divisor_scales(name, side):
    scheme = SCHEMES[name]
    b = Matrix.from_rows([[1, 2], [3, 4]])
    shape = FactorShape(2, 2, 2, 2)
    for base, e in itertools.product(SCALE_DIVISORS, range(-1000, 1001, 50)):
        a = _scaled(Matrix.from_array(base), e)
        expected = next((err for lo, hi, err in SCALE_FAILURES[name] if lo <= e <= hi), None)
        try:
            if side == "left":
                got = left_quotient(scheme, a, kron(a, b), shape)
            else:
                got = right_quotient(scheme, kron(b, a), a, shape)
        except KronError as exc:
            assert type(exc) is expected, f"e={e}: {exc!r}"
            continue
        assert expected is None, f"e={e}: returned instead of raising {expected.__name__}"
        assert relative_residual(got, b) < 1e-9, f"e={e}"


# The dividend at 2^e M, e over DIVIDEND_EXPONENTS: every cell returns exactly 2^e
# times its e = 0 result, or raises UnsupportedInputError naming the op.
DIVIDEND_EXPONENTS = (-1000, -500, 0, 500, 1000)
DIVIDEND_SHAPES = (FactorShape(2, 2, 2, 2), FactorShape(2, 2, 3, 3), FactorShape(3, 3, 2, 2))


def _exactly_scaled(op, compute, base, e):
    """compute(e) is 2^e * base bit for bit, or raises UnsupportedInputError naming op."""
    try:
        got = compute(e)
    except UnsupportedInputError as exc:
        assert str(exc).startswith(f"{op} "), f"{op} at e={e}: {exc}"
        return
    assert got.to_array().tobytes() == _scaled(base, e).to_array().tobytes(), f"{op} at e={e}"


@pytest.mark.parametrize("shape", DIVIDEND_SHAPES, ids=str)
def test_scaling_the_dividend_scales_every_result_exactly(shape):
    rng = np.random.default_rng(87)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for real in (True, False):
            a = random_nonzero(rng, shape.m, shape.n, need_trace=True)
            b = random_nonzero(rng, shape.s, shape.t, need_trace=True)
            m = random_matrix(rng, shape.m * shape.s, shape.n * shape.t, real=real)
            multiple = kron(a, b)
            for e in DIVIDEND_EXPONENTS:
                _exactly_scaled("kron", lambda e: kron(a, _scaled(b, e)), multiple, e)
                _exactly_scaled("pfp", lambda e: pfp(a, _scaled(m, e)), pfp(a, m), e)
            for name in SCHEMES:
                ops = {
                    "left_quotient": lambda mm: left_quotient(name, a, mm, shape),
                    "right_quotient": lambda mm: right_quotient(name, mm, b, shape),
                    "remainder": lambda mm: remainder(name, a, mm, shape),
                }
                for (op, run), e in itertools.product(ops.items(), DIVIDEND_EXPONENTS):
                    _exactly_scaled(op, lambda e: run(_scaled(m, e)), run(m), e)
                for e in DIVIDEND_EXPONENTS:
                    assert is_divisor(name, a, _scaled(multiple, e), shape), f"{name} e={e}"
                    assert not is_divisor(name, a, _scaled(m, e), shape), f"{name} e={e}"


@pytest.mark.parametrize("name", ["frobenius", "operator", "trace"])
def test_remainder_overflow_is_a_typed_error(name):
    # the quotient of this dividend fits binary64, but M - kron(A, C) does not: C is
    # negative, so the (1, 1) entry of the remainder is 1.7e308 + |C| > 2e308
    m = Matrix.diagonal([1.7e308, 1.7e308])
    a = Matrix.diagonal([1, -3])
    shape = FactorShape(2, 2, 1, 1)
    message = (r"^remainder of the 2x2 dividend by the 2x2 divisor overflows binary64 "
               r"at factor shape \(m=2, n=2, s=1, t=1\)$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        left_quotient(name, a, m, shape)
        for op in (remainder, is_divisor):
            with pytest.raises(UnsupportedInputError, match=message):
                op(name, a, m, shape)


@pytest.mark.parametrize("name", ["frobenius", "operator", "trace"])
def test_remainder_fits_where_kron_of_the_quotient_overflows(name):
    # A kron C reaches about 2.1e308 here, but M - A kron C stays under 1.3e308:
    # the remainder is 4 times that of M/4, bit for bit, and M is no multiple of A
    m = Matrix.from_array(np.full((4, 4), 1.5e308))
    a = Matrix.from_array(SCALE_DIVISORS[0])
    shape = FactorShape(2, 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = remainder(name, a, m, shape)
        want = 4 * remainder(name, a, m * 0.25, shape)
        assert got.to_array().tobytes() == want.to_array().tobytes()
        assert not is_divisor(name, a, m, shape)


CANCELLING_DIVISOR = Matrix.from_rows([[0.25, 0.25]])
CANCELLING_DIVIDEND = Matrix.from_rows([[1.5e308, -1.5e308]])


@pytest.mark.parametrize("name", [
    "leopardi", "frobenius", "operator",
    pytest.param(QuotientScheme.linear(family_from_realization(realization_for("frobenius"))),
                 id="linear"),
])
def test_cancelling_products_do_not_fail_a_quotient_that_fits(name):
    # Q(A) is about [[2, 2]], so each product Q_jk M_jk overflows while their sum,
    # the quotient, is 0 up to rounding: every op returns 4 times its value on M/4
    a, m = CANCELLING_DIVISOR, CANCELLING_DIVIDEND
    left, right = FactorShape(1, 2, 1, 1), FactorShape(1, 1, 1, 2)
    quarter = m * 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = left_quotient(name, a, m, left)
        want = 4 * left_quotient(name, a, quarter, left)
        assert got.to_array().tobytes() == want.to_array().tobytes()
        assert right_quotient(name, m, a, right) == 4 * right_quotient(name, quarter, a, right)
        assert abs(got.entry(1, 1)) <= 1e-15 * 1.5e308
        if name != "operator":  # the operator's Q(A) is 2 - 4e-16, and BLAS may fuse
            assert got == Matrix.from_rows([[0.0]])
        assert remainder(name, a, m, left) == m
        assert not is_divisor(name, a, m, left)
        assert pfp(Matrix.from_rows([[2, 2]]), m) == Matrix.from_rows([[0.0]])


def test_a_linear_family_is_read_once_per_quotient():
    # the overflow retry reuses the components the first pass checked
    frobenius = family_from_realization(realization_for("frobenius"))
    reads = []

    def family(a, s, t):
        reads.append((s, t))
        return frobenius(a, s, t)

    scheme = QuotientScheme.linear(family)
    a = CANCELLING_DIVISOR
    left, right = FactorShape(1, 2, 1, 1), FactorShape(1, 1, 1, 2)
    for m in (Matrix.from_rows([[1.0, 2.0]]), CANCELLING_DIVIDEND):
        for quotient in (lambda: left_quotient(scheme, a, m, left),
                         lambda: right_quotient(scheme, m, a, right),
                         lambda: realize(scheme, a).quotient(m, left)):
            reads.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                quotient()
            assert reads == [(1, 1)], m


def test_trace_quotient_of_an_exact_product_near_the_top_of_the_range():
    # Q(A) = 2^30 I: each product 2^30 B_uv overflows, and the two cancel to B
    a = Matrix.diagonal([1, -1 + 2**-30])
    shape = FactorShape(2, 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = Matrix.from_rows([[1e300, 2e300], [3e300, -1e300]])
        got = left_quotient("trace", a, kron(a, b), shape)
        small = left_quotient("trace", a, kron(a, b * 2.0**-20), shape)
        assert got == small * 2.0**20
        # kron(A, B) rounds (-1 + 2^-30) B_uv, and 1/tr(A) = 2^30 amplifies that rounding
        assert relative_residual(got, b) <= 2**30 * np.finfo(np.float64).eps
        # with (-1 + 2^-30) B exact, the quotient is B
        b = Matrix.from_rows([[1, 2], [3, -1]]) * 2.0**996
        assert relative_residual(left_quotient("trace", a, kron(a, b), shape), b) <= TOLERANCE


def test_a_product_that_overflows_still_raises():
    big = Matrix.from_rows([[1e200]])
    with pytest.raises(UnsupportedInputError, match="^kron of a 1x1 and a 1x1 matrix overflows"):
        kron(big, big)


@pytest.mark.parametrize("name", ["frobenius", "operator"])
def test_is_divisor_with_an_infinite_dividend_norm(name):
    # ||M||_F and ||R||_F both exceed the largest float; inf <= 1e-10 * inf must not
    # make M a multiple of A
    rng = np.random.default_rng(1)
    m = Matrix.from_array(rng.uniform(-1, 1, (4, 4)) * 1.5e308)
    a = Matrix.from_array(rng.uniform(-1, 1, (2, 2)))
    shape = FactorShape(2, 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_divisor(name, a, m, shape)
        assert is_divisor(name, a, kron(a, Matrix.from_array(np.full((2, 2), 1e308))), shape)


def test_leopardi_overflow_names_each_op():
    # the blockwise ratios of this dividend average about 2.8e308: the quotient itself
    # overflows binary64, on either side
    m = Matrix.from_array(np.full((4, 4), 1.5e308))
    a = Matrix.from_array(SCALE_DIVISORS[0])
    shape = FactorShape(2, 2, 2, 2)
    tail = (r" of the 4x4 dividend by the 2x2 divisor overflows binary64 "
            r"at factor shape \(m=2, n=2, s=2, t=2\)$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInputError, match="^left_quotient" + tail):
            left_quotient("leopardi", a, m, shape)
        with pytest.raises(UnsupportedInputError, match="^right_quotient" + tail):
            right_quotient("leopardi", m, a, shape)
        for op in (remainder, is_divisor):
            with pytest.raises(UnsupportedInputError, match="^remainder" + tail):
                op("leopardi", a, m, shape)


def test_trace_overflow_is_a_typed_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q_of in (trace_realization, lambda a: realize("trace", a)):
            with pytest.raises(UnsupportedInputError,
                               match=r"^tr\(A\) of the 2x2 divisor overflows binary64$"):
                q_of(Matrix.diagonal([1.5e308, 1.5e308]))


def test_trace_q_has_the_bits_of_identity_over_trace():
    rng = np.random.default_rng(71)
    inputs = [Matrix.from_array(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
              for n in (1, 2, 3, 4, 7) for _ in range(4)]
    inputs += [Matrix.diagonal([1, -1 + 2**-30]), Matrix.diagonal([1e-300, 0]),
               Matrix.from_rows([[-0.0, 1], [1, 3j]]), Matrix.from_rows([[2.0**-1000]])]
    for a in inputs:
        want = Matrix.identity(a.rows) / a.trace()
        assert realize("trace", a).q.to_array().tobytes() == want.to_array().tobytes()


def test_divisor_quotient_overflow_names_the_quotient():
    # pfp(Q(A), M) overflows: the realized divisor names the quotient as left_quotient does
    m = Matrix.from_array(np.full((4, 4), 1.5e308))
    a = Matrix.from_array(SCALE_DIVISORS[0])
    shape = FactorShape(2, 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInputError) as via_function:
            left_quotient("leopardi", a, m, shape)
        with pytest.raises(UnsupportedInputError) as via_divisor:
            realize("leopardi", a).quotient(m, shape)
    assert str(via_divisor.value) == str(via_function.value)
    assert str(via_divisor.value).startswith("left_quotient of the 4x4 dividend")


@pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
def test_frobenius_weights_scale_free(e):
    for base in SCALE_DIVISORS:
        a = Matrix.from_array(base)
        assert frobenius_weights(_scaled(a, e)) == frobenius_weights(a)


class TestScaleAndConcurrency:
    def test_round_trip_at_the_size_envelope(self):
        # 16x16 factors give a 256x256 product, the top of the target range
        rng = np.random.default_rng(81)
        a = random_nonzero(rng, 16, 16)
        b = random_matrix(rng, 16, 16)
        shape = FactorShape(16, 16, 16, 16)
        got = left_quotient("frobenius", a, kron(a, b), shape)
        assert relative_residual(got, b) < 1e-9

    def test_concurrent_evaluations_agree(self):
        # immutable values, pure functions: threads must not interfere
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(82)
        a = random_nonzero(rng, 3, 3)
        m = random_matrix(rng, 9, 9)
        shape = FactorShape(3, 3, 3, 3)

        def run(_):
            return (left_quotient("leopardi", a, m, shape),
                    left_quotient("operator", a, m, shape),
                    remainder("frobenius", a, m, shape),
                    right_quotient("operator", m, a, shape),
                    pfp(a, m),
                    left_quotient("frobenius", a, m, shape))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, range(32)))
        first = results[0]
        assert all(r == first for r in results[1:])


class TestFrobeniusOptimality:
    def test_returned_factor_beats_perturbations(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            a = random_nonzero(rng, 2, 2)
            m = random_matrix(rng, 4, 6)
            shape = FactorShape(2, 2, 2, 3)
            c = left_quotient("frobenius", a, m, shape)
            best = (m - kron(a, c)).frobenius_norm()
            for _ in range(20):
                scale = 10.0 ** rng.uniform(-6, 0)
                perturbed = c + scale * random_matrix(rng, 2, 3)
                assert (m - kron(a, perturbed)).frobenius_norm() >= best - 1e-9


def _scaled(mat: Matrix, e: int) -> Matrix:
    """2^e * mat, exact while the entries stay normal."""
    arr = mat.to_array()
    return Matrix.from_array(np.ldexp(arr.real, e) + 1j * np.ldexp(arr.imag, e))


@pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("name", ["leopardi", "operator"])
def test_divisor_verdict_at_huge_scales(name, e):
    # at 2^600 the squared norms overflowed, and every dividend passed as a multiple;
    # at 2^-600 an absolute tolerance passed every dividend below it
    rng = np.random.default_rng(86)
    a = random_nonzero(rng, 2, 2)
    shape = FactorShape(2, 2, 2, 2)
    product = kron(a, random_matrix(rng, 2, 2))
    assert is_divisor(name, _scaled(a, e), _scaled(product, e), shape)
    assert not is_divisor(name, _scaled(a, e), _scaled(random_matrix(rng, 4, 4), e), shape)
    assert math.isfinite(remainder(name, _scaled(a, e), _scaled(product, e), shape)
                         .frobenius_norm())
