"""Property tests for the packed GF(2)[x] kernel and GF(2)(x) arithmetic.

Each kernel routine is checked against a plain reference written here:
schoolbook multiplication, Euclid's gcd, and, for the field, reducing the
textbook sum and product by one gcd of the full numerator and denominator.
The product and gcd are also checked against sympy's ``gf_mul`` and
``gf_gcd`` over GF(2), where sympy is installed, and whole F2(X)
decompositions are checked against the same ones made on the schoolbook
product.
"""

import random
import sys

import pytest

from m2forms import (
    DiagonalForm,
    FieldElement,
    Mat2,
    NotASquareError,
    RationalFunctionField2,
    decompose,
    gf2x,
)

F2X = RationalFunctionField2()


def ref_mul(a, b):
    c = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            c ^= a << i
        i += 1
    return c


def ref_gcd(a, b):
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def ref_reduce(num, den):
    if num == 0:
        return (0, 1)
    g = ref_gcd(num, den)
    return (gf2x.divmod_(num, g)[0], gf2x.divmod_(den, g)[0])


def poly(rng, degree):
    """A random polynomial of exactly this degree (0 for degree -1)."""
    if degree < 0:
        return 0
    return (1 << degree) | rng.getrandbits(degree)


def with_popcount(rng, bits, count):
    """A random polynomial of degree bits - 1 with exactly ``count`` set bits."""
    return sum((1 << i for i in rng.sample(range(bits - 1), count - 1)), 1 << (bits - 1))


def to_sym(a):
    """sympy's dense GF(2) list for a packed polynomial, leading coefficient first."""
    from sympy.polys.domains import ZZ

    return [ZZ((a >> i) & 1) for i in reversed(range(a.bit_length()))]


def from_sym(coeffs):
    return int("".join(str(int(c)) for c in coeffs) or "0", 2)


def fraction(rng, max_degree, factor=1):
    """A reduced payload whose denominator is a multiple of ``factor``."""
    num = poly(rng, rng.randrange(-1, max_degree + 1))
    den = ref_mul(poly(rng, rng.randrange(0, max_degree + 1)), factor)
    return ref_reduce(num, den)


class TestKernel:
    def test_mul_matches_schoolbook(self):
        rng = random.Random(11)
        for _ in range(500):
            a = poly(rng, rng.randrange(-1, 200))
            b = poly(rng, rng.randrange(-1, 200))
            assert gf2x.mul(a, b) == ref_mul(a, b) == gf2x.mul(b, a)
        for _ in range(60):  # both sides of 256 set bits in the smaller factor
            a = poly(rng, rng.randrange(200, 1200))
            b = poly(rng, rng.randrange(200, 1200))
            assert gf2x.mul(a, b) == ref_mul(a, b) == gf2x.mul(b, a)

    @pytest.mark.parametrize("count", [gf2x.K - 1, gf2x.K, 255, 256])
    def test_mul_at_each_edge_of_the_integer_product(self, count):
        # below K and from 256 set bits in the smaller factor mul takes the
        # loop; in between, one integer product whose bytes must not carry.
        # All ones times all ones puts `count` terms into the middle bytes.
        rng = random.Random(21 + count)
        ones = (1 << count) - 1
        smaller = [ones, with_popcount(rng, count + 40, count), with_popcount(rng, 1100, count)]
        larger = [(1 << 1200) - 1, poly(rng, 1199), with_popcount(rng, 1200, 3)]
        for b in smaller:
            assert b.bit_count() == count
            spread = sum(1 << 2 * i for i in range(b.bit_length()) if (b >> i) & 1)
            assert gf2x.mul(b, b) == ref_mul(b, b) == spread
            for a in larger:
                assert gf2x.mul(a, b) == ref_mul(a, b) == gf2x.mul(b, a)

    def test_mul_ignores_the_int_string_limit(self):
        # base-2 text and from_bytes/to_bytes are outside the int <-> str
        # digit limit, so neither path refuses operands past 4,300 digits
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int string-conversion limit")
        rng = random.Random(22)
        counts = [gf2x.K - 1, gf2x.K, 200, 255, 256, 2000]
        pairs = [(poly(rng, 6000), with_popcount(rng, 4500, count)) for count in counts]
        want = [ref_mul(a, b) for a, b in pairs]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError):
                int("1" * 641)
            for (a, b), product in zip(pairs, want):
                assert gf2x.mul(a, b) == product == gf2x.mul(b, a)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_mul_matches_sympy(self):
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_mul

        rng = random.Random(23)
        for _ in range(100):
            a = poly(rng, rng.randrange(-1, 600))
            b = poly(rng, rng.randrange(-1, 600))
            assert gf2x.mul(a, b) == from_sym(gf_mul(to_sym(a), to_sym(b), 2, ZZ)), (a, b)

    def test_mul_by_zero_and_one(self):
        rng = random.Random(17)
        for _ in range(200):
            a = poly(rng, rng.randrange(-1, 200))
            assert gf2x.mul(a, 0) == gf2x.mul(0, a) == 0
            assert gf2x.mul(a, 1) == gf2x.mul(1, a) == a

    def test_gcd_matches_euclid_with_planted_factor(self):
        rng = random.Random(12)
        for _ in range(400):
            common = poly(rng, rng.randrange(0, 100))
            a = ref_mul(common, poly(rng, rng.randrange(0, 200)))
            b = ref_mul(common, poly(rng, rng.randrange(0, 200)))
            g = gf2x.gcd(a, b)
            assert g == ref_gcd(a, b) == gf2x.gcd(b, a)
            assert gf2x.divmod_(g, common)[1] == 0
            assert gf2x.divmod_(a, g)[1] == 0 and gf2x.divmod_(b, g)[1] == 0

    def test_gcd_edge_operands(self):
        rng = random.Random(13)
        for _ in range(200):
            a = poly(rng, rng.randrange(-1, 300))
            i, j = rng.randrange(300), rng.randrange(300)
            x_i, x_j = 1 << i, 1 << j
            assert gf2x.gcd(a, 0) == gf2x.gcd(0, a) == a
            assert gf2x.gcd(x_i, x_j) == 1 << min(i, j)
            assert gf2x.gcd(a, x_j) == ref_gcd(a, x_j)
            assert gf2x.gcd(a << i, a << j) == a << min(i, j)
            assert gf2x.gcd(a, 1) == gf2x.gcd(1, a) == 1
        assert gf2x.gcd(0, 0) == 0

    def test_gcd_matches_sympy(self):
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_gcd

        rng = random.Random(16)
        for _ in range(300):
            common = poly(rng, rng.randrange(-1, 40))
            a = ref_mul(common, poly(rng, rng.randrange(-1, 80)))
            b = ref_mul(common, poly(rng, rng.randrange(-1, 80)))
            assert gf2x.gcd(a, b) == from_sym(gf_gcd(to_sym(a), to_sym(b), 2, ZZ)), (a, b)

    @staticmethod
    def per_bit_sqrt(a):
        root = 0
        i = 0
        while a:
            if a & 1:
                if i & 1:
                    return None
                root |= 1 << (i >> 1)
            a >>= 1
            i += 1
        return root

    def test_sqrt_matches_per_bit_loop(self):
        rng = random.Random(18)
        cases = [0, 1, 0b10, 0b100]
        for degree in list(range(-1, 40)) + [2200, 4400, 9000]:
            a = poly(rng, degree)
            odd = 1 << (2 * rng.randrange(degree + 2) + 1)  # exactly one odd exponent
            cases += [a, gf2x.mul(a, a), gf2x.mul(a, a) ^ odd]
        for a in cases:
            want = self.per_bit_sqrt(a)
            assert gf2x.sqrt(a) == want, a
            if want is not None:
                assert gf2x.mul(want, want) == a

    def test_sqrt_ignores_the_int_string_limit(self):
        # the int <-> str digit limit covers decimal and other non-power-of-2
        # bases only, so a root read through base-2 text is never refused
        rng = random.Random(19)
        a = poly(rng, 4400)
        square = gf2x.mul(a, a)
        assert square.bit_length() > 8800
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int string-conversion limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
        try:
            with pytest.raises(ValueError):
                int("1" * 641)
            assert gf2x.sqrt(square) == a
            assert gf2x.sqrt(square ^ (1 << 4401)) is None
        finally:
            sys.set_int_max_str_digits(limit)

    def test_divmod_identity(self):
        rng = random.Random(14)
        for _ in range(500):
            a = poly(rng, rng.randrange(-1, 300))
            b = poly(rng, rng.randrange(0, 150))
            q, r = gf2x.divmod_(a, b)
            assert a == gf2x.mul(q, b) ^ r
            assert r.bit_length() < b.bit_length()
        with pytest.raises(ZeroDivisionError):
            gf2x.divmod_(5, 0)


class TestReducedArithmetic:
    @pytest.mark.parametrize("shared", [False, True])
    def test_ops_match_reduced_textbook_formula(self, shared):
        rng = random.Random(15 + shared)
        for _ in range(400):
            factor = poly(rng, rng.randrange(1, 6)) if shared else 1
            a = fraction(rng, 30, factor)
            b = fraction(rng, 30, factor)
            (n1, d1), (n2, d2) = a, b
            x, y = FieldElement(F2X, a), FieldElement(F2X, b)
            naive = {
                "add": (ref_mul(n1, d2) ^ ref_mul(n2, d1), ref_mul(d1, d2)),
                "mul": (ref_mul(n1, n2), ref_mul(d1, d2)),
                "cube": (ref_mul(n1, ref_mul(n1, n1)), ref_mul(d1, ref_mul(d1, d1))),
            }
            got = {"add": x + y, "mul": x * y, "cube": x**3}
            if n2:
                naive["div"] = (ref_mul(n1, d2), ref_mul(d1, n2))
                got["div"] = x / y
            for op, (num, den) in naive.items():
                assert got[op].payload == F2X._reduce(num, den) == ref_reduce(num, den), op
            assert (x - y) == (x + y)
            assert (x + x).payload == (0, 1)

    def test_zero_operands_give_canonical_payloads(self):
        # a zero on either side returns without a gcd: a sum is the other
        # operand's payload, a product or quotient the canonical zero (0, 1)
        rng = random.Random(20)
        zeros = [F2X.zero(), F2X(0), F2X(2), F2X.parse("0/(x+1)"), F2X.parse("x") + F2X.parse("x")]
        for _ in range(100):
            x = FieldElement(F2X, fraction(rng, 30))
            if x.is_zero():
                continue
            for zero in zeros:
                assert zero.payload == (0, 1)
                assert (zero + x).payload == (x + zero).payload == x.payload
                assert (zero - x).payload == (x - zero).payload == x.payload
                assert (zero * x).payload == (x * zero).payload == (0, 1)
                assert (zero / x).payload == (0, 1)
                with pytest.raises(ZeroDivisionError):
                    x / zero
        for a in zeros:
            for b in zeros:
                assert (a + b).payload == (a - b).payload == (a * b).payload == (0, 1)
                with pytest.raises(ZeroDivisionError):
                    a / b

    def test_sum_cancels_against_the_shared_denominator(self):
        # 1/(x^2+x) + 1/x: the gcd of the denominators is x, and the new
        # numerator x cancels it again, leaving 1/(x+1)
        assert F2X.parse("1/(x^2+x)") + F2X.parse("1/x") == F2X.parse("1/(x+1)")
        assert (F2X.parse("1/(x^2+x)") + F2X.parse("1/x")).payload == (1, 0b11)

    def test_product_cross_cancels(self):
        a = F2X.parse("(x^2+1)/x")
        b = F2X.parse("x^3/(x+1)")
        assert (a * b).payload == (0b1100, 1)  # (x+1)*x^2
        assert (a * a.inv()).payload == (1, 1)
        assert (a * F2X.zero()).payload == (0, 1)


class TestDecomposeOnTheSchoolbookProduct:
    @staticmethod
    def outcome(form, target):
        """The answer's entry payloads, or the element NotASquareError names."""
        try:
            return [[e.payload for e in X.entries()] for X in decompose(form, target).matrices]
        except NotASquareError as exc:
            return exc.element.payload

    def test_same_answers_and_failures(self, monkeypatch):
        # seeded forms like decompose-bignum's: degree-8 quotient entries,
        # square coefficients (the paper's family), and every third form
        # with arbitrary ones, which the char-2 construction often cannot solve
        rng = random.Random(24)

        def quotient(degree):
            return FieldElement(F2X, ref_reduce(poly(rng, degree), poly(rng, degree)))

        cases = []
        for i in range(120):
            m = 2 + i % 3
            coeffs = [quotient(8) if i % 3 == 2 else quotient(4) ** 2 for _ in range(m)]
            form = DiagonalForm(F2X, coeffs)
            target = form.evaluate([Mat2(*(quotient(8) for _ in range(4))) for _ in range(m)])
            cases.append((form, target))
        shipped = [self.outcome(form, target) for form, target in cases]

        products = []

        def schoolbook(a, b):
            products.append(min(a, b))
            return ref_mul(a, b)

        monkeypatch.setattr(RationalFunctionField2, "_ring_mul", staticmethod(schoolbook))
        assert [self.outcome(form, target) for form, target in cases] == shipped
        # the comparison covers both mul paths and both outcomes
        assert any(gf2x.K <= b.bit_count() < 256 for b in products)
        assert any(1 < b and b.bit_count() < gf2x.K for b in products)
        assert {type(answer) for answer in shipped} == {list, tuple}
