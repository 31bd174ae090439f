"""2x2 matrix arithmetic and diagonal form evaluation."""

import random

import pytest

from m2forms import (
    ArityMismatchError,
    DiagonalForm,
    ExtensionField,
    FieldMismatchError,
    Mat2,
    ParseError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
)

Q = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF4 = ExtensionField(2, 2)
GF9 = ExtensionField(3, 2)
F2X = RationalFunctionField2()

PROPERTY_FIELDS = [Q, GF5, GF4, GF9, F2X]
# Q, GF(7), GF(2^61-1), GF(8), GF(9), GF(16), GF(25), GF(27) on the tuple path, F2(X)
SQUARING_FIELDS = [
    Q, PrimeField(7), PrimeField(2**61 - 1), ExtensionField(2, 3), GF9,
    ExtensionField(2, 4), ExtensionField(5, 2), ExtensionField(3, 3), F2X,
]


def rand_mat(field, rng):
    return Mat2(*(field.random_element(rng) for _ in range(4)))


class TestConstruction:
    def test_entries_must_share_a_field(self):
        with pytest.raises(FieldMismatchError):
            Mat2(GF3(1), GF3(0), GF5(0), GF3(1))
        with pytest.raises(TypeError):
            Mat2(1, 0, 0, 1)

    def test_of_coerces(self):
        m = Mat2.of(Q, [["1/5", 2], [0, -1]])
        assert m.e11 == Q.parse("1/5")
        assert m.e22 == Q(-1)

    def test_zero_identity(self):
        assert Mat2.zero(GF3).is_zero()
        i = Mat2.identity(GF3)
        assert i * i == i


class TestArithmetic:
    def test_identity_product(self):
        i = Mat2.identity(GF3)
        assert i * i == i

    def test_nilpotent_squares_to_zero(self):
        for field in [Q, GF2, GF5, GF4, F2X]:
            n = Mat2.of(field, [[0, 1], [0, 0]])
            assert n.square() == Mat2.zero(field)

    def test_square_example_rationals(self):
        x1 = Mat2.parse(Q, "[[4/5,1],[0,1/5]]")
        assert x1.square() == Mat2.parse(Q, "[[16/25,1],[0,1/25]]")
        assert x1.square().scale(2) == Mat2.parse(Q, "[[32/25,2],[0,2/25]]")

    def test_square_example_gf2(self):
        x = Mat2.of(GF2, [[1, 1], [1, 0]])
        assert x.square() == Mat2.of(GF2, [[0, 1], [1, 1]])

    def test_square_entry_formula(self):
        # X^2 == [[x^2+yz, y(x+w)], [z(x+w), yz+w^2]]
        rng = random.Random(1)
        for field in PROPERTY_FIELDS:
            for _ in range(20):
                m = rand_mat(field, rng)
                x, y, z, w = m.entries()
                expected = Mat2(
                    x * x + y * z, y * (x + w), z * (x + w), y * z + w * w
                )
                assert m.square() == expected

    def test_scalar_multiplication(self):
        m = Mat2.of(GF5, [[1, 2], [3, 4]])
        assert m.scale(2) == Mat2.of(GF5, [[2, 4], [1, 3]])
        assert 2 * m == m.scale(2)
        assert m * GF5(2) == m.scale(2)

    def test_add_sub_neg(self):
        rng = random.Random(2)
        for field in PROPERTY_FIELDS:
            a, b = rand_mat(field, rng), rand_mat(field, rng)
            assert a + b - b == a
            assert a + (-a) == Mat2.zero(field)

    def test_cross_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            Mat2.identity(GF3) + Mat2.identity(GF5)
        with pytest.raises(FieldMismatchError):
            Mat2.identity(GF3) * Mat2.identity(GF5)

    def test_cross_field_subtraction_rejected(self):
        with pytest.raises(FieldMismatchError):
            Mat2.identity(GF3) - Mat2.identity(GF5)

    def test_cayley_hamilton(self):
        # X^2 = trace(X) * X - det(X) * I
        rng = random.Random(3)
        for field in PROPERTY_FIELDS:
            i = Mat2.identity(field)
            for _ in range(50):
                m = rand_mat(field, rng)
                assert m.square() == m.scale(m.trace()) - i.scale(m.det())

    def test_transpose_commutes_with_square(self):
        rng = random.Random(4)
        for field in PROPERTY_FIELDS:
            for _ in range(50):
                m = rand_mat(field, rng)
                assert m.transpose().square() == m.square().transpose()

    def test_hashable(self):
        a = Mat2.of(GF3, [[1, 2], [0, 1]])
        b = Mat2.of(GF3, [[1, 2], [0, 1]])
        assert len({a, b}) == 1

    def test_hash_agrees_with_equality(self):
        rng = random.Random(5)
        for field in PROPERTY_FIELDS:
            for _ in range(20):
                m = rand_mat(field, rng)
                same = Mat2.parse(field, str(m))
                assert same == m and hash(same) == hash(m)
                assert len({m, same, m + Mat2.identity(field)}) == 2

    def test_equal_payloads_over_two_fields_stay_apart(self):
        a = Mat2.of(GF3, [[1, 2], [0, 1]])
        b = Mat2.of(GF5, [[1, 2], [0, 1]])
        assert [e.payload for e in a.entries()] == [e.payload for e in b.entries()]
        assert a != b
        assert len({a, b}) == 2


def special_mats(field, rng):
    """Zero, scalar, nilpotent, singular and random matrices over ``field``."""
    x, y, k = (field.random_element(rng) for _ in range(3))
    zero = field.zero()
    return [
        Mat2.zero(field),
        Mat2.identity(field),
        Mat2(x, zero, zero, x),  # scalar
        Mat2.nilpotent(field),
        Mat2(x * y, y * y, -x * x, -x * y),  # nilpotent: trace and det are 0
        Mat2(x, y, k * x, k * y),  # singular: proportional rows
        rand_mat(field, rng),
        rand_mat(field, rng),
    ]


class TestOneSquaringFormula:
    """Mat2.square(coeff) is the only squaring; check it against the product."""

    @pytest.mark.parametrize("field", SQUARING_FIELDS, ids=str)
    def test_square_is_the_product(self, field):
        rng = random.Random(11)
        for _ in range(10):
            for m in special_mats(field, rng):
                assert m.square() == m * m

    @pytest.mark.parametrize("field", SQUARING_FIELDS, ids=str)
    def test_coefficient_form_is_the_scaled_product(self, field):
        rng = random.Random(12)
        for _ in range(10):
            coeffs = [field.zero(), field.one(), field.random_element(rng)]
            for m in special_mats(field, rng):
                for a in coeffs:
                    assert m.square(a) == (m * m).scale(a)

    @pytest.mark.parametrize("field", SQUARING_FIELDS, ids=str)
    def test_evaluate_is_the_product_sum(self, field):
        rng = random.Random(13)
        for m in range(1, 5):
            for _ in range(10):
                # about a third of the coefficients, and of the matrices, are zero
                coeffs = [field.zero() if rng.random() < 0.3 else field.random_element(rng)
                          for _ in range(m)]
                mats = [Mat2.zero(field) if rng.random() < 0.3 else rng.choice(special_mats(field, rng))
                        for _ in range(m)]
                expected = Mat2.zero(field)
                for a, x in zip(coeffs, mats):
                    expected = expected + (x * x).scale(a)
                assert DiagonalForm(field, coeffs).evaluate(mats) == expected

    def test_arity_is_checked_before_fields(self):
        form = DiagonalForm(GF5, [1, 0])
        with pytest.raises(ArityMismatchError):
            form.evaluate([Mat2.zero(GF3)])
        with pytest.raises(ArityMismatchError):
            form.evaluate([Mat2.zero(GF5), Mat2.zero(GF5), Mat2.zero(GF3)])

    def test_field_is_checked_in_a_zero_coefficient_slot(self):
        form = DiagonalForm(GF5, [1, 0])
        with pytest.raises(FieldMismatchError):
            form.evaluate([Mat2.zero(GF5), Mat2.zero(GF3)])
        with pytest.raises(FieldMismatchError):
            DiagonalForm(GF5, [0, 1]).evaluate([Mat2.identity(F2X), Mat2.zero(GF5)])


def rand_fraction(field, rng):
    """Q: small, or signed with 40-digit parts; F2(X): quotients up to degree 12."""
    if field is Q and rng.random() < 0.5:
        return Q(rng.choice((-1, 1)) * rng.randint(0, 10**40)) / Q(rng.randint(1, 10**40))
    r = field.random_element
    return r(rng) * r(rng) + r(rng)


class TestEvaluatesTo:
    """Over Q and F2(X) evaluates_to cross-multiplies; it must agree with evaluate."""

    @pytest.mark.parametrize("field", [Q, F2X], ids=str)
    def test_agrees_with_evaluate(self, field):
        rng = random.Random(31)
        for m in range(1, 5):
            for _ in range(40):
                # about a quarter of the coefficients, and of the matrices, are zero
                coeffs = [field.zero() if rng.random() < 0.25 else rand_fraction(field, rng)
                          for _ in range(m)]
                xs = [Mat2.zero(field) if rng.random() < 0.25 else
                      Mat2(*(field.zero() if rng.random() < 0.2 else rand_fraction(field, rng)
                             for _ in range(4)))
                      for _ in range(m)]
                form = DiagonalForm(field, coeffs)
                value = form.evaluate(xs)
                assert form.evaluates_to(xs, value)
                for k in range(4):  # the value with any one entry changed
                    entries = list(value.entries())
                    entries[k] += rand_fraction(field, rng) or field.one()
                    assert not form.evaluates_to(xs, Mat2(*entries))
                other = rand_mat(field, rng)
                assert form.evaluates_to(xs, other) == (value == other)

    @pytest.mark.parametrize("field", [Q, GF5, F2X], ids=str)
    def test_raises_what_evaluate_raises(self, field):
        form = DiagonalForm(field, [1, 0])
        target = Mat2.zero(field)
        with pytest.raises(ArityMismatchError):
            form.evaluates_to([Mat2.zero(field)], target)
        with pytest.raises(FieldMismatchError):
            form.evaluates_to([Mat2.zero(field), Mat2.zero(GF3)], target)

    def test_target_over_another_field_is_not_the_value(self):
        form = DiagonalForm(Q, [1, 1])
        assert not form.evaluates_to([Mat2.zero(Q)] * 2, Mat2.zero(GF5))


class TestParsing:
    def test_parse_with_whitespace(self):
        m = Mat2.parse(Q, " [[ 1/5 , 2 ], [ 0, -1 ]] ")
        assert m == Mat2.of(Q, [["1/5", 2], [0, -1]])

    @pytest.mark.parametrize(
        "field, text, same",
        [
            (GF9, "[ [ 2 * t ^ 2 + 1 , - t ] , [ 0 , t ] ]", "[[2*t^2+1,-t],[0,t]]"),
            (F2X, "[[ ( x + 1 ) / ( x ^ 2 ) ,\t1 ],\n[ 0 , x / x ]]", "[[(x+1)/(x^2),1],[0,1]]"),
            (GF5, "[[ - 3 , + 4 ], [ 0, 1 ]]", "[[-3,4],[0,1]]"),
        ],
    )
    def test_whitespace_between_tokens(self, field, text, same):
        assert Mat2.parse(field, text) == Mat2.parse(field, same)

    @pytest.mark.parametrize(
        "field, text, message, pos",
        [
            (Q, "[[1 2,0],[0,1]]", "expected [-]digits[/digits]", 2),
            (GF5, "[[1,0],[0, 1 2]]", "expected [-]digits", 11),
            (GF9, "[[t^1 0,0],[0,1]]", "expected '+' or '-'", 6),
            (F2X, "[[x,0],[0,1 1*x]]", "expected '+' or '-'", 12),
        ],
    )
    def test_whitespace_splits_no_number(self, field, text, message, pos):
        with pytest.raises(ParseError) as info:
            Mat2.parse(field, text)
        assert str(info.value) == f"{message} (at position {pos} in {text!r})"

    def test_parse_extension_entries(self):
        m = Mat2.parse(GF9, "[[t+1,2],[t,2*t]]")
        assert m.e11 == GF9.parse("t+1")
        assert m.e22 == GF9.parse("2*t")

    def test_parse_rational_function_entries(self):
        m = Mat2.parse(F2X, "[[x,(x)/(x+1)],[0,1]]")
        assert m.e12 == F2X.parse("x") / F2X.parse("x+1")

    def test_str_round_trip(self):
        rng = random.Random(5)
        for field in PROPERTY_FIELDS:
            for _ in range(20):
                m = rand_mat(field, rng)
                assert Mat2.parse(field, str(m)) == m

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "[[1,2],[3]]",
            "[1,2]",
            "[[1,2],[3,4]]x",
            "[[1,2],[3,4]",
            "[[1,,2],[3,4]]",
            "[[],[3,4]]",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            Mat2.parse(GF5, bad)

    @pytest.mark.parametrize(
        "field, text, message, pos",
        [
            (Q, "[[1/2),0],[0,1]]", "unbalanced ')'", 5),
            (Q, "[[1,(2],[3,4]]", "unbalanced '('", 13),
            (GF5, "[[1,2],[3),4]]", "unbalanced ')'", 9),
            (GF5, "[[(1,2],[3,4]]", "unbalanced '('", 13),
            (GF9, "[[t),0],[0,0]]", "unbalanced ')'", 3),
            (GF9, "[[t+1,(2*t],[t,1]]", "unbalanced '('", 17),
            (F2X, "[[x,(x)/(x))],[0,1]]", "unbalanced ')'", 11),
            (F2X, "[[(x+1)/(x,0],[0,1]]", "unbalanced '('", 19),
        ],
    )
    def test_unbalanced_parenthesis_is_named_where_it_is(self, field, text, message, pos):
        """An unmatched ')' at its position in the matrix text, an unclosed '(' at the last character."""
        with pytest.raises(ParseError) as info:
            Mat2.parse(field, text)
        assert str(info.value) == f"{message} (at position {pos} in {text!r})"
        assert (info.value.text, info.value.pos) == (text, pos)


class TestDiagonalForm:
    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError):
            DiagonalForm(Q, [])

    def test_nonzero_indices(self):
        form = DiagonalForm(Q, [0, 2, 0, 1])
        assert form.nonzero_indices() == (1, 3)
        assert len(form) == 4

    def test_evaluate_golden(self):
        form = DiagonalForm(Q, [2, 1])
        xs = [Mat2.parse(Q, "[[4/5,1],[0,1/5]]"), Mat2.parse(Q, "[[0,-27/25],[1,0]]")]
        assert form.evaluate(xs) == Mat2.parse(Q, "[[1/5,2],[0,-1]]")

    def test_evaluate_zero_matrices(self):
        form = DiagonalForm(GF5, [1, 2, 3])
        zeros = [Mat2.zero(GF5)] * 3
        assert form.evaluate(zeros) == Mat2.zero(GF5)

    def test_evaluate_gf2(self):
        form = DiagonalForm(GF2, [1, 1])
        xs = [Mat2.of(GF2, [[1, 1], [1, 0]]), Mat2.of(GF2, [[0, 0], [1, 1]])]
        assert form.evaluate(xs) == Mat2.of(GF2, [[0, 1], [0, 0]])

    def test_arity_mismatch(self):
        form = DiagonalForm(GF5, [1, 2])
        with pytest.raises(ArityMismatchError):
            form.evaluate([Mat2.zero(GF5)])

    def test_field_mismatch(self):
        form = DiagonalForm(GF5, [1, 2])
        with pytest.raises(FieldMismatchError):
            form.evaluate([Mat2.zero(GF5), Mat2.zero(GF3)])

    def test_zero_coefficient_is_inert(self):
        # appending a zero coefficient never changes the value
        rng = random.Random(6)
        for field in PROPERTY_FIELDS:
            base = DiagonalForm(field, [1, 2])
            extended = DiagonalForm(field, [1, 2, 0])
            xs = [rand_mat(field, rng), rand_mat(field, rng)]
            junk = rand_mat(field, rng)
            assert extended.evaluate(xs + [junk]) == base.evaluate(xs)

    def test_coefficients_coerce(self):
        form = DiagonalForm(GF5, ["7", 2])
        assert form.coeffs[0] == GF5(2)


class TestProtocol:
    """Refused operands, reprs, and DiagonalForm's value semantics."""

    def test_add_int_is_refused(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            Mat2.identity(GF5) + 1

    def test_mat2_repr(self):
        assert repr(Mat2.of(GF5, [[1, 2], [3, 4]])) == (
            "Mat2(GF(5)(1), GF(5)(2), GF(5)(3), GF(5)(4))"
        )
        assert repr(Mat2.parse(Q, "[[1/2,0],[0,-1]]")) == "Mat2(Q(1/2), Q(0), Q(0), Q(-1))"

    def test_diagonal_form_value_semantics(self):
        form = DiagonalForm(GF5, [1, 2])
        same = DiagonalForm(GF5, ["6", 7])
        assert form == same and hash(form) == hash(same)
        assert form != DiagonalForm(GF5, [1, 3])
        assert form != DiagonalForm(GF3, [1, 2])
        assert form != DiagonalForm(GF5, [1, 2, 0])
        assert str(form) == "1,2"
        assert repr(form) == "DiagonalForm(GF(5), [1,2])"
        assert repr(DiagonalForm(GF9, ["t", 1])) == "DiagonalForm(GF(3^2), [t,1])"

    def test_scale_by_one_is_the_matrix_itself(self):
        for field in (Q, GF5, GF4, GF9):
            m = Mat2.of(field, [[1, 2], [0, 1]])
            assert m.scale(1) is m and m.scale(field.one()) is m and 1 * m is m
        with pytest.raises(FieldMismatchError):
            Mat2.identity(GF5).scale(GF3(1))
