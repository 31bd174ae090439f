"""Universality verdicts, the integer-matrix criterion, and the GF(2)(x) counterexample."""

import itertools
import math
import random
import time

import pytest

from m2forms import (
    NOT_UNIVERSAL,
    UNDECIDED,
    UNIVERSAL,
    DiagonalForm,
    ExtensionField,
    FieldMismatchError,
    Mat2,
    NotASquareError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    UniversalityVerdict,
    build_square_set,
    check_universal_exhaustive,
    decide_universality,
    decompose,
    f2x_counterexample,
    f2x_necessary_condition,
    lee_criterion,
    nilpotent_witness,
    single_term_witness,
)

Q = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, 2)
F2X = RationalFunctionField2()

N_GF3 = Mat2.of(GF3, [[0, 1], [0, 0]])


class TestDecide:
    def test_two_nonzero_over_rationals(self):
        verdict = decide_universality(DiagonalForm(Q, [0, 5, 7]))
        assert verdict.status == UNIVERSAL
        assert verdict.witness is None

    def test_single_term(self):
        verdict = decide_universality(DiagonalForm(GF3, [2]))
        assert verdict.status == NOT_UNIVERSAL
        assert verdict.witness == N_GF3

    def test_zero_form(self):
        verdict = decide_universality(DiagonalForm(GF2, [0, 0, 0]))
        assert verdict.status == NOT_UNIVERSAL
        assert verdict.witness == nilpotent_witness(GF2)

    def test_non_perfect_two_nonzero_is_undecided(self):
        verdict = decide_universality(DiagonalForm(F2X, [1, 1]))
        assert verdict.status == UNDECIDED
        assert verdict.reason == "non-perfect-field"

    def test_non_perfect_single_term_is_still_negative(self):
        verdict = decide_universality(DiagonalForm(F2X, [1, 0]))
        assert verdict.status == NOT_UNIVERSAL

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            UniversalityVerdict(NOT_UNIVERSAL, None, "missing-witness")

    @pytest.mark.parametrize("q,field", [(2, GF2), (3, GF3)])
    def test_matches_oracle_at_desk_scale(self, q, field):
        # target count is q**4 per sweep; keep vectors short
        elems = list(field.elements())
        for m in (1, 2, 3):
            for coeffs in itertools.product(elems, repeat=m):
                form = DiagonalForm(field, coeffs)
                verdict = decide_universality(form)
                nonzero = [c for c in coeffs if not c.is_zero()]
                if verdict.status == UNIVERSAL:
                    ok, counterexample = check_universal_exhaustive(
                        nonzero[0], nonzero[1], field
                    )
                    assert ok and counterexample is None
                else:
                    coeff = nonzero[0] if nonzero else field.zero()
                    square_set = build_square_set(field, coeff)
                    assert verdict.witness not in square_set


class TestLeeCriterion:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((1, 1, 1), True),
            ((1, 1), False),
            ((2, 2, 3), False),
            ((1, 2, 3), True),
            ((4, 4, 4, 1, 1), False),
            ((1,), False),
            ((0, 1, 1, 1), True),  # no prime divides three of them
            ((1, 1, 1, 4), True),
            ((3, 5, 7), True),
            ((2, 3, 4, 5), True),
            ((6, 10, 15), False),  # 5 divides all but the first
            ((2, 4, 6), False),
        ],
    )
    def test_table(self, coeffs, expected):
        assert lee_criterion(coeffs) is expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lee_criterion([])

    def test_permutation_and_sign_invariance(self):
        rng = random.Random(12)
        for _ in range(100):
            coeffs = [rng.randint(-12, 12) for _ in range(rng.randint(1, 6))]
            base = lee_criterion(coeffs)
            shuffled = coeffs[:]
            rng.shuffle(shuffled)
            assert lee_criterion(shuffled) is base
            flipped = [c if rng.random() < 0.5 else -c for c in coeffs]
            assert lee_criterion(flipped) is base

    def test_short_lists_fail(self):
        rng = random.Random(13)
        for _ in range(50):
            coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 2))]
            assert lee_criterion(coeffs) is False

    def test_appending_zero_never_helps(self):
        rng = random.Random(14)
        for _ in range(100):
            coeffs = [rng.randint(-12, 12) for _ in range(rng.randint(1, 5))]
            if not lee_criterion(coeffs):
                assert not lee_criterion(coeffs + [0])

    @staticmethod
    def _quadratic_definition(coeffs):
        """The criterion read literally: every leave-one-out list's gcd."""
        return all(
            math.gcd(*(coeffs[:i] + coeffs[i + 1 :])) == 1 for i in range(len(coeffs))
        ) and sum(1 for a in coeffs if a % 4 != 0) >= 3

    def test_matches_quadratic_definition(self):
        rng = random.Random(15)
        verdicts = set()
        for _ in range(2000):
            coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.5:  # a prime shared by all but maybe one
                prime, spared = rng.choice([2, 3, 5, 7]), rng.randrange(len(coeffs) + 1)
                coeffs = [c if i == spared else prime * c for i, c in enumerate(coeffs)]
            verdict = lee_criterion(coeffs)
            assert verdict is self._quadratic_definition(coeffs), coeffs
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("shared", [None, 3], ids=["coprime", "shared-prime"])
    def test_linear_time(self, shared):
        rng = random.Random(16)
        coeffs = [rng.randint(1, 10**6) for _ in range(50_000)]
        if shared:  # the one coefficient left out of the shared prime comes last
            coeffs = [shared * c for c in coeffs[:-1]] + [shared * coeffs[-1] + 1]
        start = time.perf_counter()
        assert lee_criterion(coeffs) is (shared is None)
        assert time.perf_counter() - start < 0.5


class TestSingleTermWitness:
    def test_confirmed_over_gf2(self):
        witness, explanation = single_term_witness(GF2(1))
        assert witness == nilpotent_witness(GF2)
        assert explanation.oracle_confirmed is True
        assert len(explanation.equations) == 4

    def test_confirmed_over_gf3(self):
        witness, explanation = single_term_witness(GF3(2))
        assert explanation.oracle_confirmed is True

    def test_symbolic_only_over_rationals(self):
        witness, explanation = single_term_witness(Q(2))
        assert witness == nilpotent_witness(Q)
        assert explanation.oracle_confirmed is None
        assert "0 = 1" in explanation.conclusion

    def test_zero_coefficient(self):
        witness, explanation = single_term_witness(GF2(0))
        assert witness == nilpotent_witness(GF2)
        assert explanation.oracle_confirmed is True
        assert "zero" in explanation.conclusion

    def test_not_confirmed_above_bound(self):
        GF7 = PrimeField(7)
        _, explanation = single_term_witness(GF7(1))
        assert explanation.oracle_confirmed is None

    def test_witness_never_representable(self):
        # exhaustive over every small field and every coefficient
        for field in [GF2, GF3, GF4, PrimeField(5)]:
            for a in field.elements():
                witness, _ = single_term_witness(a)
                assert witness not in build_square_set(field, a)


class TestF2XCondition:
    def test_x_fails(self):
        target = Mat2.of(F2X, [["x", 0], [0, 0]])
        assert f2x_necessary_condition(target) is False

    def test_x_squared_passes(self):
        target = Mat2.of(F2X, [["x^2", 0], [0, 0]])
        assert f2x_necessary_condition(target) is True

    def test_zero_passes(self):
        assert f2x_necessary_condition(Mat2.zero(F2X)) is True

    def test_only_the_diagonal_matters(self):
        target = Mat2.of(F2X, [["x", "x^3"], ["(x)/(x+1)", 0]])
        assert f2x_necessary_condition(target) is False
        shifted = Mat2.of(F2X, [["x", 0], [0, "x^2+x"]])
        # trace sum x + x^2 + x = x^2 is a square
        assert f2x_necessary_condition(shifted) is True

    def test_wrong_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            f2x_necessary_condition(Mat2.zero(GF2))


class TestCounterexample:
    def test_shape(self):
        form, target = f2x_counterexample()
        assert form.field == F2X
        assert [str(c) for c in form.coeffs] == ["1", "1"]
        assert str(target) == "[[x,0],[0,0]]"

    def test_fails_the_necessary_condition(self):
        _, target = f2x_counterexample()
        assert f2x_necessary_condition(target) is False

    def test_solver_reports_the_missing_root(self):
        form, target = f2x_counterexample()
        with pytest.raises(NotASquareError) as err:
            decompose(form, target)
        assert err.value.element == F2X.parse("x")

    def test_counting_criterion_would_have_said_universal(self):
        # the same coefficients over a perfect field are universal
        form, _ = f2x_counterexample()
        assert len(form.nonzero_indices()) >= 2
        perfect_twin = DiagonalForm(GF2, [1, 1])
        assert decide_universality(perfect_twin).status == UNIVERSAL
        assert decide_universality(form).status == UNDECIDED
