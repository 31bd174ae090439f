"""Field arithmetic, parsing, frobenius, and square roots."""

import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import pytest

from m2forms import (
    CharacteristicError,
    DiagonalForm,
    ExtensionField,
    FieldMismatchError,
    InfiniteFieldError,
    Mat2,
    NotASquareError,
    ParseError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    decompose,
    field_from_string,
    gf2x,
    is_prime,
    polys,
)
from m2forms.fields import _FIELDS, _parse_dense, _prime_power, _render_poly

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
        assert Q.parse("-27/25").payload == (-27, 25)
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
        for bad in [Q(2), Q(-4), Q.parse("1/3"), Q.parse("2/9"), Q.parse("9/2")]:
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

    # every element of the table-backed fields, seeded samples of the rest
    TABLE_FIELDS = ["GF(4)", "GF(8)", "GF(16)", "GF(2^8);modulus=t^8+t^4+t^3+t+1", "GF(9)", "GF(25)"]
    SAMPLED_FIELDS = ["GF(27)", "GF(7^2);modulus=t^2+1", "Q", "F2(X)"]

    @pytest.mark.parametrize("descriptor", TABLE_FIELDS + SAMPLED_FIELDS)
    def test_render_parse_round_trip(self, descriptor):
        field = field_from_string(descriptor)
        if descriptor in self.TABLE_FIELDS:
            elements = list(field.elements())
        else:
            rng = random.Random(descriptor)
            elements = [field.random_element(rng) for _ in range(200)]
        for a in elements:
            b = field.parse(str(a))
            assert b == a and b.payload == a.payload

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
        # gcd(0, d) = d, so zero reduces to (0, 1) whatever its denominator
        assert F2X.parse("0/(x)").payload == (0, 1)
        assert Q.parse("0/5").payload == (0, 1)
        assert Q.parse("-6/4").payload == (-3, 2)

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
        inv_x = F2X.parse("1/x")  # a square numerator over a non-square denominator
        with pytest.raises(NotASquareError) as err:
            inv_x.sqrt()
        assert err.value.element == inv_x

    def test_frobenius_squares(self):
        x = F2X.parse("x")
        assert x.frobenius() == F2X.parse("x^2")

    def test_sqrt_of_squares(self):
        root = F2X.parse("(x^2)/(x^4+1)").sqrt()
        assert root == F2X.parse("(x)/(x^2+1)")
        assert root.payload == (2, 5)
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


class TestLeadingPlus:
    """Q and GF(p) take a leading '+', as the polynomial grammar does."""

    def test_accepted(self):
        assert Q.parse("+1/2") == Q.parse("1/2")
        assert Q.parse("+3") == Q(3)
        assert GF7.parse("+10") == GF7(3)
        assert str(Q.parse(" + 4 / 6 ")) == "2/3"

    @pytest.mark.parametrize("text", ["1/+2", "+-1", "++1", "-+1", "+", "+/2"])
    def test_still_rejected(self, text):
        with pytest.raises(ParseError):
            Q.parse(text)
        if "/" not in text:
            with pytest.raises(ParseError):
                GF7.parse(text)


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


class TestZeroDivision:
    """Division, inv and negative powers refuse zero with one message in
    every family, whatever the family's own inverse would do."""

    NONZERO = {Q: "-3/7", GF7: "3", GF9: "t+1", GF8: "t^2+1", F2X: "(x+1)/x"}

    @pytest.mark.parametrize("field", list(NONZERO), ids=str)
    def test_zero_is_refused(self, field):
        a = field.parse(self.NONZERO[field])
        for op in (lambda: a / field.zero(), lambda: a / 0, lambda: 1 / field.zero(),
                   lambda: field.zero().inv(), lambda: field.zero() ** -1):
            with pytest.raises(ZeroDivisionError) as err:
                op()
            assert str(err.value) == "division by zero"


class TestInterning:
    """Every spelling of one field is one object, so equality is identity."""

    def test_spellings_of_gf8_are_one_object(self):
        spellings = [
            ExtensionField(2, 3),
            ExtensionField(2, 3, (1, 1, 0, 1)),
            ExtensionField(p=2, k=3, modulus=[3, 1, 2, 1]),  # reduced mod 2
            ExtensionField(2, 3, " t^3 + t + 1 "),
            field_from_string("GF(8)"),
            field_from_string("GF(2^3);modulus=t^3+t+1"),
        ]
        assert all(field is GF8 for field in spellings)

    def test_other_families_are_one_object(self):
        assert PrimeField(7) is PrimeField(p=7) is field_from_string("GF(7)") is GF7
        assert field_from_string("GF(7^1)") is GF7
        assert Rationals() is field_from_string("Q") is Q
        assert RationalFunctionField2() is field_from_string(" F2( X ) ") is F2X

    def test_distinct_moduli_are_distinct_fields(self):
        other = ExtensionField(2, 3, "t^3+t^2+1")
        assert other is not GF8 and other != GF8
        assert other is ExtensionField(2, 3, (1, 0, 1, 1))
        assert len({GF8, other, ExtensionField(2, 3)}) == 2
        with pytest.raises(FieldMismatchError):
            GF8.parse("t") * other.parse("t")
        with pytest.raises(FieldMismatchError):
            Mat2.identity(GF8) + Mat2.identity(other)

    def test_invalid_descriptor_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="reducible"):
                ExtensionField(2, 3, "t^3+1")
            with pytest.raises(ParseError, match="reducible"):
                field_from_string("GF(2^3);modulus=t^3+1")
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(9)
        assert (ExtensionField, (2, 3, (1, 0, 0, 1))) not in _FIELDS
        assert (PrimeField, (9,)) not in _FIELDS

    def test_entries_live_only_as_long_as_the_field(self):
        field = ExtensionField(5, 2, "t^2+2")
        key = (ExtensionField, (5, 2, (2, 0, 1)))
        element = field.parse("t")
        ref = weakref.ref(field)
        del field
        gc.collect()
        assert ExtensionField(5, 2, "t^2+2") is element.field  # the element keeps it
        del element
        gc.collect()
        assert ref() is None
        assert key not in _FIELDS

    @pytest.mark.parametrize("field", ALL_FIELDS + [ExtensionField(97, 2, "t^2+t+5")], ids=str)
    def test_copy_and_pickle_return_the_interned_field(self, field):
        assert copy.copy(field) is field
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field
        m = Mat2.identity(field) + Mat2.nilpotent(field)
        for clone in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m
            assert all(entry.field is field for entry in (clone.e11, clone.e12, clone.e21, clone.e22))

    def test_concurrent_construction_yields_one_object(self):
        cores = os.cpu_count() or 1
        n_threads = cores + min(cores, 8)
        # irreducible quartics over GF(97) that nothing else holds, so each
        # round races on a miss and on the irreducibility check under it
        moduli = [f"t^4+t+{c}" for c in (6, 11, 12, 16, 23, 29, 32, 33, 45, 53, 60, 63)]
        spellings = [
            lambda m: ExtensionField(97, 4, m),
            lambda m: field_from_string(f"GF(97^4);modulus={m}"),
            lambda m: PrimeField(2**61 - 1),
        ]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for modulus in moduli:
                barrier = threading.Barrier(n_threads, timeout=30)
                results = [None] * n_threads

                def work(i):
                    barrier.wait()
                    results[i] = [spell(modulus) for spell in spellings]

                threads = [
                    threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                first = results[0]
                assert first[0] is first[1]
                assert all(r[j] is first[j] for r in results for j in range(len(first)))
        finally:
            sys.setswitchinterval(old_interval)


class TestAsciiDigits:
    """Digits are ASCII 0-9 in every grammar; other digit characters that
    str.isdigit() or \\d accept are a ParseError."""

    @pytest.mark.parametrize(
        "field, text, message",
        [
            (GF9, "\u00b2", "expected a term"),  # superscript two
            (GF9, "t^\u00b2", "expected exponent digits"),
            (F2X, "x^\u00b2", "expected exponent digits"),
            (F2X, "\u0661*x", "expected a term"),  # Arabic-Indic one
            (GF7, "\u0661", "expected [-]digits"),
            (Q, "\u0661/2", "expected [-]digits[/digits]"),
            (Q, "1_0", "expected [-]digits[/digits]"),
        ],
    )
    def test_element_rejects_non_ascii_digits(self, field, text, message):
        with pytest.raises(ParseError) as info:
            field.parse(text)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("text", ["GF(\u0667)", "GF(\u0663^2)", "GF(3^\u0662)", "GF(\u00b2)"])
    def test_field_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError, match="unrecognized field"):
            field_from_string(text)

    def test_ascii_digits_unchanged(self):
        assert GF9.parse("2*t^1+10") == GF9.parse("2*t+1")
        assert F2X.parse("x^10").payload == (1 << 10, 1)
        assert str(Q.parse("-0010/4")) == "-5/2"
        assert field_from_string("GF(0009)") is GF9


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


class TestElementProtocol:
    """Comparison with ints, truth value, refused operand types and reprs."""

    def test_equality_with_int(self):
        assert GF7(3) == 3 and GF7(3) == 10
        assert GF7(3) != 4
        assert Q(1) == 1

    def test_truth_value(self):
        assert not GF7(0) and not Q(0) and not GF9.zero() and not F2X.zero()
        assert GF7(2) and Q.parse("-1/2") and GF9.parse("t") and F2X.parse("x")

    @pytest.mark.parametrize(
        "op",
        [lambda: Q(1) + "1", lambda: 2.0 * GF7(1), lambda: GF7(1) ** 1.5],
        ids=["add-str", "float-mul", "float-pow"],
    )
    def test_unsupported_operands(self, op):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()

    def test_fraction_construction(self):
        assert Q(Fraction(1, 2)) == Q.parse("1/2")
        with pytest.raises(TypeError, match=r"cannot make a GF\(7\) element from Fraction"):
            GF7(Fraction(1, 2))
        with pytest.raises(TypeError, match=r"^cannot make a Q element from 1\.5$"):
            Q(1.5)

    def test_repr(self):
        assert repr(GF7(3)) == "GF(7)(3)"
        assert repr(Q.parse("-1/2")) == "Q(-1/2)"
        assert repr(GF9.parse("t+1")) == "GF(3^2)(t+1)"
        assert repr(F2X.parse("x/(x+1)")) == "F2(X)((x)/(x+1))"


class TestParseAndBoundErrors:
    @pytest.mark.parametrize(
        "field, text, message",
        [
            (GF9, "t^5000", "exponent too large (at position 2 in 't^5000')"),
            (GF9, "2*5", "expected 't' after '*' (at position 2 in '2*5')"),
            (GF9, "t3", "expected '+' or '-' (at position 1 in 't3')"),
            (F2X, "(x)+(1)", "expected a term (at position 0 in '(x)+(1)')"),
            (F2X, "(x", "unbalanced '(' (at position 1 in '(x')"),
            (F2X, "x)", "unbalanced ')' (at position 1 in 'x)')"),
            (F2X, "(x)/(0)", "zero denominator (at position 4 in '(x)/(0)')"),
            (F2X, "x/", "empty polynomial (at position 2 in 'x/')"),
            (Q, "1/0", "zero denominator (at position 2 in '1/0')"),
            (Q, "1/-2", "expected [-]digits[/digits] (at position 0 in '1/-2')"),
            (F2X, "(x+1)/(x+)", "expected a term (at position 9 in '(x+1)/(x+)')"),
            (F2X, "(x+)", "expected a term (at position 3 in '(x+)')"),
        ],
    )
    def test_parse_errors(self, field, text, message):
        with pytest.raises(ParseError) as err:
            field.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PrimeField(2**64 + 13), "prime fields above 2**64 are not supported"),
            (lambda: ExtensionField(2, 1), "extension degree must be at least 2"),
            (lambda: ExtensionField(101, 2), "supports degree <= 8 over p <= 97 only"),
            (lambda: ExtensionField(4, 2), "4 is not prime"),
        ],
        ids=["prime-above-2^64", "degree-1", "p-above-97", "p-not-prime"],
    )
    def test_constructor_bounds(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("GF(2^0)", "extension degree must be positive"),
            ("GF(18446744073709551616)", "from 2**64 up are not supported"),
        ],
    )
    def test_descriptor_bounds(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            field_from_string(text)

    def test_constants_are_not_irreducible(self):
        for p in (2, 5):
            for constant in ((), (1,), (p - 1,)):
                assert not polys.is_irreducible(constant, p)


def _coeffs(bits):
    """Packed GF(2)[t] as the ascending coefficient tuple polys takes."""
    return tuple((bits >> i) & 1 for i in range(bits.bit_length()))


class TestPackedBinaryExtension:
    """GF(2^k) payloads are packed ints; each operation is checked against
    the coefficient-tuple arithmetic of polys as the reference."""

    FIELDS = [
        GF4,
        GF8,
        ExtensionField(2, 3, "t^3+t^2+1"),
        ExtensionField(2, 4),
        ExtensionField(2, 5),
        ExtensionField(2, 6, "t^6+t+1"),
        ExtensionField(2, 7, "t^7+t^3+1"),
        field_from_string("GF(2^8);modulus=t^8+t^4+t^3+t+1"),
    ]

    @staticmethod
    def operands(field):
        """Every pair for q <= 16, else 2000 seeded pairs."""
        q = field.order
        if q <= 16:
            return [(a, b) for a in range(q) for b in range(q)]
        rng = random.Random(q)
        return [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_matches_tuple_reference(self, field):
        m, q = field.modulus, field.order
        elements = list(field.elements())
        for a, b in self.operands(field):
            x, y = elements[a], elements[b]
            ta, tb = _coeffs(a), _coeffs(b)
            assert _coeffs((x + y).payload) == polys.add(ta, tb, 2)
            assert _coeffs((x - y).payload) == polys.sub(ta, tb, 2)
            assert _coeffs((x * y).payload) == polys.mod(polys.mul(ta, tb, 2), m, 2)
            assert _coeffs((x**b).payload) == polys.pow_mod(ta, b, m, 2)
            if b:
                assert _coeffs((x / y).payload) == polys.mod(
                    polys.mul(ta, polys.inv_mod(tb, m, 2), 2), m, 2
                )
        for a in {a for a, _ in self.operands(field)}:
            x, ta = elements[a], _coeffs(a)
            assert _coeffs((-x).payload) == ta
            assert _coeffs(x.frobenius().payload) == polys.pow_mod(ta, 2, m, 2)
            assert _coeffs(x.sqrt().payload) == polys.pow_mod(ta, q // 2, m, 2)
            if a:
                assert _coeffs(x.inv().payload) == polys.inv_mod(ta, m, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_payload_is_element_index(self, field):
        assert [e.payload for e in field.elements()] == list(range(field.order))
        rng = random.Random(1)
        assert field.random_element(rng).payload == random.Random(1).randrange(field.order)

    @pytest.mark.parametrize(
        "field, text, expected",
        [
            (GF8, "t^9", "t^2"),  # t^7 = 1
            (GF8, "3*t", "t"),
            (GF8, "-t", "t"),
            (GF8, "t+t", "0"),
            (GF8, "-1", "1"),
            (ExtensionField(2, 3, "t^3+t^2+1"), "t^3", "t^2+1"),
            (ExtensionField(2, 4), "t^9", "t^3+t"),
            (GF4, "2*t^2+5", "1"),
        ],
    )
    def test_unreduced_input(self, field, text, expected):
        assert str(field.parse(text)) == expected
        assert field.parse(text) == field.parse(expected)

    @pytest.mark.parametrize(
        "field, text, rendered, target, matrices",
        [
            (GF8, "t^9+2*t-1", "t^2+1", "[[t^9,3*t],[-t,t+t+1]]",
             ["[[t^2+1,t],[t,0]]", "[[0,t],[1,0]]"]),
            (FIELDS[-1], "t^8-t", "t^4+t^3+1", "[[t,1],[t^7,t^2+1]]",
             ["[[t^7+t^2+t,t^6+t^4+t^3+t^2+t+1],[t^6+t^4+t^2,0]]", "[[0,t^7+t^3+t],[1,0]]"]),
        ],
        ids=["GF8", "GF256"],
    )
    def test_gf2x_is_not_called(self, monkeypatch, field, text, rendered, target, matrices):
        """gf2x is F2(X)'s kernel only: GF(2^k) parses, renders, computes
        and decomposes without it."""

        def refuse(*args):
            raise AssertionError("GF(2^k) called gf2x")

        for name in ("divmod_", "mul", "gcd", "sqrt"):
            monkeypatch.setattr(gf2x, name, refuse)
        x, y = field.parse(text), field.parse("t+1")
        assert str(x) == rendered and x == field.parse(rendered)
        assert (x * y) / y == x and (x + y) - y == x and -x == x
        assert x.sqrt() ** 2 == x and x ** (field.order - 1) == 1
        result = decompose(DiagonalForm(field, ["t", 1]), Mat2.parse(field, target))
        assert [str(m) for m in result.matrices] == matrices

    def test_int_coercion(self):
        assert GF8(3) == GF8(1) == GF8.one() and GF8(-2) == GF8.zero()
        assert GF8.parse("t") + 1 == GF8.parse("t+1")

    def test_pickle_round_trip(self):
        for field in self.FIELDS:
            a = field.parse("t+1")
            b = pickle.loads(pickle.dumps(a))
            assert b == a and b.field is field and b.payload == 0b11
            assert copy.deepcopy(a) == a

    @pytest.mark.parametrize(
        "op",
        [lambda: GF8.parse("t") / GF8.zero(), lambda: GF8.zero().inv(),
         lambda: 1 / GF8.zero(), lambda: GF8.zero() ** -1],
        ids=["div", "inv", "rdiv", "negative-pow"],
    )
    def test_zero_division(self, op):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            op()


def _odd_coeffs(field, payload):
    """A GF(p^k) payload as the ascending coefficient tuple polys takes:
    tuple payloads as they are, int payloads read in base p with c0 the
    most significant digit."""
    if isinstance(payload, tuple):
        return payload
    p, k = field.p, field.k
    return polys.normalize([payload // p ** (k - 1 - i) % p for i in range(k)], p)


def _index_coeffs(field, idx):
    """The ascending tuple of the element with index idx: c_i is its i-th
    base-p digit, least significant first."""
    return polys.normalize([idx // field.p**i % field.p for i in range(field.k)], field.p)


GF27 = ExtensionField(3, 3)  # q = 27, the first order above the table bound


class TestPackedOddExtension:
    """Odd-characteristic GF(p^k) with q <= 25 runs on sum and log/antilog
    tables over int payloads; each operation is checked against the
    coefficient-tuple arithmetic of polys as the reference."""

    FIELDS = [
        GF9,  # t^2+1: t has order 4, so the generator search rejects it
        ExtensionField(3, 2, "t^2+t+2"),  # t generates
        ExtensionField(5, 2),  # t^2+t+1: t has order 3
        ExtensionField(5, 2, "t^2+3"),
    ]

    @pytest.mark.parametrize("field", FIELDS + [GF27], ids=str)
    def test_matches_tuple_reference(self, field):
        p, m, q = field.p, field.modulus, field.order
        elements = list(field.elements())

        def coeffs(x):
            return _odd_coeffs(field, x.payload)

        def mulmod(a, b):
            return polys.mod(polys.mul(a, b, p), m, p)

        for a in range(q):
            x, ta = elements[a], _index_coeffs(field, a)
            for b in range(q):
                y, tb = elements[b], _index_coeffs(field, b)
                assert coeffs(x + y) == polys.add(ta, tb, p)
                assert coeffs(x - y) == polys.sub(ta, tb, p)
                assert coeffs(x * y) == mulmod(ta, tb)
                assert coeffs(x**b) == polys.pow_mod(ta, b, m, p)
                if b:
                    assert coeffs(x / y) == mulmod(ta, polys.inv_mod(tb, m, p))
            assert coeffs(-x) == polys.neg(ta, p)
            assert coeffs(x.frobenius()) == polys.pow_mod(ta, p, m, p)
            if not a:
                assert x.sqrt() == x
                continue
            assert coeffs(x.inv()) == polys.inv_mod(ta, m, p)
            if polys.pow_mod(ta, (q - 1) // 2, m, p) != (1,):  # Euler: a non-square
                with pytest.raises(NotASquareError):
                    x.sqrt()
                continue
            r = coeffs(x.sqrt())
            assert mulmod(r, r) == ta and r < polys.neg(r, p)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_payload_is_an_int_in_tuple_order(self, field):
        q = field.order
        assert [_odd_coeffs(field, e.payload) for e in field.elements()] == [
            _index_coeffs(field, i) for i in range(q)
        ]
        assert all(isinstance(e.payload, int) for e in field.elements())
        by_payload = [_odd_coeffs(field, n) for n in range(q)]
        assert by_payload == sorted(by_payload)
        assert field.one().payload == field.p ** (field.k - 1)  # c0 = 1: not the index 1

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_render_order_unchanged(self, field):
        texts = [str(e) for e in field.elements()]
        expected = [_render_poly(_index_coeffs(field, i), "t") for i in range(field.order)]
        assert texts == expected
        assert all(field.parse(text) == e for text, e in zip(texts, field.elements()))

    @pytest.mark.parametrize("field", FIELDS[:3] + [GF27], ids=str)
    @pytest.mark.parametrize("text", ["t^4096", "+t", "-1", "3*t"])
    def test_unreduced_input(self, field, text):
        p, modulus = field.p, field.modulus
        reference = polys.mod(_parse_dense(text, p), modulus, p)  # the tuple parse
        assert _odd_coeffs(field, field.parse(text).payload) == reference
        assert str(field.parse(text)) == _render_poly(reference, "t")

    def test_boundary_keeps_tuple_payloads(self):
        assert GF27.parse("t+1").payload == (1, 1)

    def test_pickle_round_trip(self):
        for field in self.FIELDS:
            a = field.parse("t+1")
            b = pickle.loads(pickle.dumps(a))
            assert b == a and b.field is field and b.payload == field.p + 1
            assert copy.deepcopy(a) == a

    def test_gf9_root_of_t(self):
        # the root whose ascending coefficient tuple is the smaller of +/-r
        assert str(GF9.parse("t").sqrt()) == "2*t+1"


class TestBinder:
    """``ExtensionField._build`` binds every payload hook on the descriptor,
    for every p and q, and the class itself defines none of them."""

    HOOKS = {"_from_int", "_add", "_mul", "_neg", "_inv",
             "_payload_from_index", "_parse_payload", "_render"}
    FIELDS = [GF8, GF9, GF27, ExtensionField(97, 2, "t^2+5")]

    def test_class_defines_no_hook(self):
        methods = [name for name, attr in vars(ExtensionField).items()
                   if callable(attr) or isinstance(attr, staticmethod)]
        assert sorted(methods) == ["__repr__", "__str__", "_build", "_key"]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_descriptor_binds_every_hook(self, field):
        assert self.HOOKS <= set(vars(field))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_hooks_read_no_descriptor_attribute(self, field):
        # an uninterned copy whose p, k and modulus are gone after the build
        bare = object.__new__(ExtensionField)
        bare._build(*field._args)
        del bare.p, bare.k, bare.modulus
        t, two = bare._parse_payload("t"), bare._from_int(2)
        assert bare._payload_from_index(field.p) == t
        quotient = bare._mul(bare._add(t, two), bare._inv(bare._neg(t)))
        expected = (field.parse("t") + 2) / -field.parse("t")
        assert (quotient, bare._render(quotient)) == (expected.payload, str(expected))
