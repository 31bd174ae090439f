"""Field arithmetic, parsing, frobenius, and square roots."""

import random
import subprocess
import sys

import pytest

from m2forms import (
    CharacteristicError,
    ExtensionField,
    FieldMismatchError,
    InfiniteFieldError,
    NotASquareError,
    ParseError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    field_from_string,
    is_prime,
)
from m2forms.fields import _prime_power

Q = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF4 = ExtensionField(2, 2)
GF8 = ExtensionField(2, 3)
GF9 = ExtensionField(3, 2)
F2X = RationalFunctionField2()

ALL_FIELDS = [Q, GF5, GF7, GF4, GF8, GF9, F2X]


def rand(field, rng):
    return field.random_element(rng)


class TestPrimality:
    def test_small_values(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(-2, 500):
            assert is_prime(n) == trial_division(n)

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime((2**31 - 1) ** 2)


class TestRationals:
    def test_example_gap(self):
        # 1/5 - (-1) = 6/5
        assert Q.parse("1/5") - Q.parse("-1") == Q.parse("6/5")

    def test_parse_canonical(self):
        assert Q.parse("-27/25").payload.numerator == -27
        assert Q.parse("4/6") == Q.parse("2/3")
        assert str(Q.parse(" -2 / 4 ")) == "-1/2"

    def test_parse_rejects(self):
        for bad in ["", "1.5", "1/", "/2", "1/0", "a", "1/2/3"]:
            with pytest.raises(ParseError):
                Q.parse(bad)

    def test_parse_rejects_more_digits_than_python_converts(self):
        # CPython refuses int() of more than 4300 digits by default
        for text, pos in [("1" * 5000, 0), ("-" + "1" * 5000, 0), ("1/" + "2" * 5000, 2)]:
            with pytest.raises(ParseError) as err:
                Q.parse(text)
            assert err.value.pos == pos
        with pytest.raises(ParseError):
            GF7.parse("1" * 5000)
        with pytest.raises(ParseError):
            F2X.parse("x^" + "1" * 5000)

    def test_sqrt(self):
        assert Q.parse("9/4").sqrt() == Q.parse("3/2")
        assert Q(0).sqrt() == Q(0)
        for bad in [Q(2), Q(-4), Q.parse("1/3")]:
            with pytest.raises(NotASquareError):
                bad.sqrt()
        assert not Q(-4).is_square()

    def test_frobenius_undefined(self):
        with pytest.raises(CharacteristicError):
            Q(3).frobenius()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q(1) / Q(0)
        with pytest.raises(ZeroDivisionError):
            Q(0).inv()


class TestPrimeField:
    def test_inverse_axiom(self):
        assert GF7(3) * GF7(3).inv() == GF7(1)

    def test_reduction(self):
        assert GF5.parse("7") == GF5(2)
        assert GF5.parse("-1") == GF5(4)
        assert GF5(3) + 4 == GF5(2)
        assert 1 - GF5(3) == GF5(3)

    def test_not_prime_rejected(self):
        for n in [0, 1, 4, 91]:
            with pytest.raises(ValueError):
                PrimeField(n)

    def test_frobenius_fixed_points(self):
        # over GF(p) frobenius is the identity
        for a in GF7.elements():
            assert a.frobenius() == a
        assert GF2(1).frobenius() == GF2(1)

    def test_sqrt_gf7(self):
        squares = {a * a for a in GF7.elements()}
        for a in GF7.elements():
            if a in squares:
                assert a.sqrt() * a.sqrt() == a
            else:
                with pytest.raises(NotASquareError):
                    a.sqrt()

    def test_sqrt_tonelli_shanks_branch(self):
        # 13 = 1 mod 4 exercises the general root finder
        GF13 = PrimeField(13)
        for a in GF13.elements():
            if a.is_square():
                assert a.sqrt() ** 2 == a
        assert sum(1 for a in GF13.elements() if a.is_square()) == 7

    def test_elements_order(self):
        assert [int(str(a)) for a in GF5.elements()] == [0, 1, 2, 3, 4]


class TestExtensionField:
    def test_default_moduli(self):
        # reproducible small-field defaults
        assert str(GF4) == "GF(2^2);modulus=t^2+t+1"
        assert str(GF8) == "GF(2^3);modulus=t^3+t+1"
        assert str(GF9) == "GF(3^2);modulus=t^2+1"
        assert str(ExtensionField(2, 4)) == "GF(2^4);modulus=t^4+t+1"
        assert str(ExtensionField(5, 2)) == "GF(5^2);modulus=t^2+t+1"
        assert str(ExtensionField(3, 3)) == "GF(3^3);modulus=t^3+2*t+1"
        assert str(ExtensionField(2, 5)) == "GF(2^5);modulus=t^5+t^2+1"

    def test_no_default_requires_modulus(self):
        with pytest.raises(ValueError):
            ExtensionField(7, 2)
        F49 = ExtensionField(7, 2, "t^2+1")
        assert F49.order == 49

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            ExtensionField(2, 2, "t^2+1")  # (t+1)^2 is reducible
        with pytest.raises(ValueError):
            ExtensionField(3, 2, "t^3+t+1")  # wrong degree
        with pytest.raises(ValueError):
            ExtensionField(3, 2, "2*t^2+1")  # not monic

    def test_bounds(self):
        with pytest.raises(ValueError):
            ExtensionField(101, 2, "t^2+1")
        with pytest.raises(ValueError):
            ExtensionField(2, 9)

    def test_frobenius_gf4(self):
        t = GF4.parse("t")
        assert t.frobenius() == GF4.parse("t+1")

    def test_sqrt_gf4(self):
        t = GF4.parse("t")
        assert t.sqrt() == GF4.parse("t+1")
        assert GF4.parse("t+1") ** 2 == t

    def test_sqrt_char2_exhaustive(self):
        for field in [GF2, GF4, GF8, ExtensionField(2, 4)]:
            for a in field.elements():
                r = a.sqrt()
                assert r * r == a
                assert (a * a).sqrt() == a

    def test_sqrt_gf9(self):
        count = 0
        for a in GF9.elements():
            if a.is_square():
                assert a.sqrt() ** 2 == a
                count += 1
        assert count == 5  # 0 plus half the units

    def test_sqrt_gf25(self):
        F25 = ExtensionField(5, 2)
        for a in F25.elements():
            if a.is_square():
                assert a.sqrt() ** 2 == a

    def test_parse_reduces(self):
        # t^2 folds down through the modulus
        assert GF4.parse("t^2") == GF4.parse("t+1")
        assert GF9.parse("t^2") == GF9.parse("-1")
        assert GF9.parse("3*t+4") == GF9.parse("1")

    def test_render_parse_round_trip(self):
        for a in GF9.elements():
            assert GF9.parse(str(a)) == a

    def test_elements_count(self):
        assert len(list(GF8.elements())) == 8
        assert len(list(GF9.elements())) == 9


class TestCanonicalSqrt:
    """Odd-characteristic roots come in pairs +/-r; sqrt returns the one
    with the smaller payload, and refuses exactly the non-squares."""

    FIELDS = [
        PrimeField(17),
        PrimeField(97),
        PrimeField(2**61 - 1),  # p = 3 mod 4
        PrimeField(18446744073709551557),  # p = 5 mod 8
        GF9,
        ExtensionField(3, 3),
        ExtensionField(5, 2),
        ExtensionField(97, 2, "t^2+t+5"),  # even degree: GF(97) is all squares
    ]

    @staticmethod
    def assert_canonical_root(a):
        r = a.sqrt()
        assert r * r == a
        assert r.payload == min(r.payload, (-r).payload)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_canonical_root(self, field):
        q = field.order
        if q <= 100:
            squares = {a * a for a in field.elements()}
            assert len(squares) == (q + 1) // 2
            for a in field.elements():
                if a in squares:
                    self.assert_canonical_root(a)
                else:
                    with pytest.raises(NotASquareError):
                        a.sqrt()
            return
        rng = random.Random(q)
        non_squares = 0
        for _ in range(40):
            a = rand(field, rng)
            self.assert_canonical_root(a * a)
            if a ** ((q - 1) // 2) == -field.one():  # Euler's criterion
                non_squares += 1
                with pytest.raises(NotASquareError):
                    a.sqrt()
        assert non_squares > 0


class TestRationalFunctionField:
    def test_add_reduces(self):
        a = F2X.parse("(x)/(x+1)")
        b = F2X.parse("(1)/(x+1)")
        assert a + b == F2X.one()

    def test_parse_reduces_by_gcd(self):
        # x^3+x = x*(x+1)^2 and x^2+1 = (x+1)^2 share the square factor
        assert F2X.parse("(x^3+x)/(x^2+1)") == F2X.parse("x")
        assert str(F2X.parse("(x^3+x)/(x^2+1)")) == "x"

    def test_parse_rejects(self):
        for bad in ["", "x/", "(x", "x)", "1/0", "(x)/(0)", "y+1"]:
            with pytest.raises(ParseError):
                F2X.parse(bad)

    def test_not_perfect(self):
        assert not F2X.perfect
        x = F2X.parse("x")
        with pytest.raises(NotASquareError) as err:
            x.sqrt()
        assert err.value.element == x
        assert not x.is_square()

    def test_frobenius_squares(self):
        x = F2X.parse("x")
        assert x.frobenius() == F2X.parse("x^2")

    def test_sqrt_of_squares(self):
        rng = random.Random(7)
        for _ in range(50):
            f = rand(F2X, rng)
            assert (f * f).sqrt() == f
            if not f.is_zero():
                with pytest.raises(NotASquareError):
                    (F2X.parse("x") * f * f).sqrt()

    def test_self_subtraction(self):
        f = F2X.parse("(x^2+x+1)/(x^3+1)")
        assert (f - f).is_zero()
        assert -f == f

    def test_infinite(self):
        with pytest.raises(InfiniteFieldError):
            list(F2X.elements())
        with pytest.raises(InfiniteFieldError):
            list(Q.elements())


class TestFieldFromString:
    @pytest.mark.parametrize(
        "text",
        ["Q", "GF(5)", "GF(2)", "GF(9)", "GF(2^3)", "GF(3^2);modulus=t^2+1", "F2(X)"],
    )
    def test_round_trip(self, text):
        field = field_from_string(text)
        assert field_from_string(str(field)) == field

    def test_prime_power_shorthand(self):
        assert field_from_string("GF(9)") == GF9
        assert field_from_string("GF(8)") == GF8

    def test_rejects(self):
        for bad in ["", "GF(6)", "GF(12)", "GF(4^2)", "R", "GF(x)", "GF(5);modulus=t"]:
            with pytest.raises(ParseError):
                field_from_string(bad)

    def test_prime_power_matches_trial_division(self):
        def trial_division(n):
            for d in range(2, n + 1):
                if n % d == 0:
                    k = 0
                    while n % d == 0:
                        n //= d
                        k += 1
                    return (d, k) if n == 1 else None
            return None

        for n in range(3000):
            assert _prime_power(n) == trial_division(n), n
        for p, k in [(2, 63), (3, 40), (97, 8), (2**61 - 1, 1), (2**31 - 1, 2)]:
            assert _prime_power(p**k) == (p, k)
        assert _prime_power(2**61 - 2) is None

    @pytest.mark.parametrize(
        "descriptor, code",
        [
            ("GF(2305843009213693951)", 0),  # 2^61-1
            ("GF(18446744073709551557)", 0),  # the largest prime below 2^64
            ("GF(100000000000000000039)", 3),
            ("GF(18446744073709551616)", 3),  # 2^64
            ("GF(6)", 3),
        ],
    )
    def test_large_orders_end_promptly(self, descriptor, code):
        # a child process, so that a factoring hang fails this test
        # instead of stalling the suite
        result = subprocess.run(
            [sys.executable, "-m", "m2forms", "decompose", "--field", descriptor,
             "--coeffs", "1,1", "--target", "[[1,0],[0,1]]"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == code, result.stderr
        if descriptor == "GF(6)":
            assert "6 is not a prime power" in result.stderr


class TestCrossField:
    def test_mismatch(self):
        with pytest.raises(FieldMismatchError):
            GF5(1) + GF7(1)
        with pytest.raises(FieldMismatchError):
            Q(GF5(1))

    def test_same_order_different_modulus(self):
        other = ExtensionField(3, 2, "t^2+t+2")
        assert other != GF9
        with pytest.raises(FieldMismatchError):
            GF9.parse("t") + other.parse("t")


class TestAlgebraicProperties:
    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_field_axioms(self, field):
        rng = random.Random(42)
        zero, one = field.zero(), field.one()
        for _ in range(100):
            a, b, c = (rand(field, rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a + (-a) == zero
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * one == a
            assert a * (b + c) == a * b + a * c
            assert a - b == a + (-b)
            if not a.is_zero():
                assert a * a.inv() == one
                assert (b / a) * a == b

    @pytest.mark.parametrize("field", [GF5, GF7, GF4, GF8, GF9, F2X], ids=str)
    def test_frobenius_is_a_homomorphism(self, field):
        rng = random.Random(11)
        for _ in range(50):
            a, b = rand(field, rng), rand(field, rng)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_parse_render_identity(self, field):
        rng = random.Random(3)
        for _ in range(50):
            a = rand(field, rng)
            assert field.parse(str(a)) == a

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_pow_and_hash(self, field):
        rng = random.Random(5)
        a = rand(field, rng)
        assert a**0 == field.one()
        assert a**3 == a * a * a
        if not a.is_zero():
            assert a**-1 == a.inv()
        assert len({a, field(a), a + field.zero()}) == 1
