"""Differential tests of Q's (numerator, denominator) payloads.

Every operation is checked against ``fractions.Fraction``, which the
package itself no longer uses, on seeded draws of zero, integers of
either sign, small fractions, 20-digit numerators and denominators, and
pairs sharing a denominator factor (so ``_add``'s cancellation against
gcd(d1, d2) and ``_mul``'s cross-cancellation both have work to do).
After every operation the payload must be canonical: an int pair in
lowest terms with a positive denominator.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from m2forms import FieldElement, NotASquareError, Rationals

Q = Rationals()
SEED = 20260


def assert_canonical(x, expected: Fraction):
    n, d = x.payload
    assert type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert (n, d) == (expected.numerator, expected.denominator)
    assert str(x) == str(expected)


def draw(rng, factor=1) -> Fraction:
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-50, 50))
    if kind == 2:
        return Fraction(rng.randint(-100, 100), rng.randint(1, 100) * factor)
    return Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20) * factor)


def element(f: Fraction) -> FieldElement:
    return Q.parse(str(f))


def pairs(seed, count=600):
    rng = random.Random(seed)
    for _ in range(count):
        factor = rng.choice((1, 1, 6, 2**40, 10**12 + 39))
        yield draw(rng, factor), draw(rng, factor)


def test_parse_and_render_match_fraction():
    rng = random.Random(SEED)
    for _ in range(400):
        n, d = rng.randint(-(10**20), 10**20), rng.randint(1, 10**20)
        x = Q.parse(f"{n}/{d}")
        assert_canonical(x, Fraction(n, d))
        assert Q.parse(str(x)) == x
        assert Q.parse(str(x)).payload == x.payload
    assert Q.parse("0/17").payload == (0, 1)
    assert Q.parse("-0").payload == (0, 1)
    assert Q.parse("+12/8").payload == (3, 2)


@pytest.mark.parametrize("seed", [SEED + 1, SEED + 2])
def test_field_operations_match_fraction(seed):
    for a, b in pairs(seed):
        x, y = element(a), element(b)
        assert_canonical(x + y, a + b)
        assert_canonical(x - y, a - b)
        assert_canonical(x * y, a * b)
        assert_canonical(-x, -a)
        assert_canonical(x - x, Fraction(0))
        if b:
            assert_canonical(x / y, a / b)
            assert_canonical(y.inv(), 1 / b)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inv()


def test_zero_operands_give_canonical_payloads():
    # a zero on either side returns without a gcd: a sum is the other
    # operand's payload, a product or quotient the canonical zero (0, 1)
    rng = random.Random(SEED + 7)
    others = [Fraction(-1), Fraction(-7, 3), Fraction(5, 12)]
    for _ in range(20):
        n = rng.randint(10**39, 10**40 - 1) * rng.choice((1, -1))
        others.append(Fraction(n, rng.randint(10**39, 10**40 - 1)))
    zeros = [Q.zero(), Q(0), Q.parse("-0/5"), Q(1) - Q(1)]
    for f in others:
        x = element(f)
        for zero in zeros:
            assert zero.payload == (0, 1)
            assert (zero + x).payload == (x + zero).payload == x.payload
            assert (x - zero).payload == x.payload
            assert (zero - x).payload == (-x).payload == (-f.numerator, f.denominator)
            for product in (zero * x, x * zero, zero / x):
                assert_canonical(product, Fraction(0))
            with pytest.raises(ZeroDivisionError):
                x / zero
    for a, b in itertools.product(zeros, repeat=2):
        for value in (a + b, a - b, a * b):
            assert_canonical(value, Fraction(0))
        with pytest.raises(ZeroDivisionError):
            a / b


def test_integer_operands_match_fraction():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        a, k = draw(rng), rng.randint(-9, 9)
        x = element(a)
        assert_canonical(x + k, a + k)
        assert_canonical(k - x, k - a)
        assert_canonical(k * x, k * a)
        assert (x == k) == (a == k)


def test_powers_match_fraction():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        a = draw(rng)
        x = element(a)
        for e in (0, 1, 2, 3, 7):
            assert_canonical(x**e, a**e)
        if a:
            for e in (-1, -2, -5):
                assert_canonical(x**e, a**e)
        else:
            with pytest.raises(ZeroDivisionError):
                x**-1


def test_sqrt_of_squares_and_non_squares():
    rng = random.Random(SEED + 5)
    for _ in range(300):
        r = abs(draw(rng))
        root = element(r * r).sqrt()
        assert_canonical(root, r)
        assert element(r * r).is_square()
    non_squares = [Fraction(-1), Fraction(-1, 4), Fraction(-4), Fraction(2), Fraction(1, 3), Fraction(8, 9)]
    for _ in range(100):
        s = Fraction(rng.randint(1, 10**10), rng.randint(1, 10**10)) ** 2
        non_squares += [-s, s * 2, s / 3]
    for f in non_squares:
        x = element(f)
        with pytest.raises(NotASquareError) as err:
            x.sqrt()
        assert err.value.element == x
        assert not x.is_square()


def test_bool_and_fraction_inputs_give_canonical_ints():
    assert str(Q(True)) == "1" and Q(True).payload == (1, 1)
    assert str(Q(False)) == "0" and Q(False).payload == (0, 1)
    assert str(Q(2) * True) == "2"
    assert type((Q(1) + True).payload[0]) is int
    assert Q(Fraction(-6, 4)).payload == (-3, 2)
    assert Q(Fraction(0, 5)).payload == (0, 1)


def test_random_elements_are_canonical():
    rng = random.Random(SEED + 6)
    ref = random.Random(SEED + 6)
    for _ in range(100):
        x = Q.random_element(rng)
        num = ref.randint(-(10**6), 10**6)
        den = ref.randint(1, 10**6)
        assert_canonical(x, Fraction(num, den))
