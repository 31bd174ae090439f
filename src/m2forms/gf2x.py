"""Polynomials over GF(2) packed into Python integers, and the F2(X) family.

The polynomial b_n x^n + ... + b_1 x + b_0 is stored as the integer with
bit i equal to b_i, so addition is xor and the zero polynomial is 0.
The kernel functions take and return plain ints.

``mul`` returns at once for a factor 0 or 1.  Below ``K`` set bits in the
smaller factor it adds one shifted copy of the larger per set bit.  From
``K`` to 255 set bits it writes both factors one binary digit per byte
and multiplies them once as integers: byte k of that product counts the
pairs i + j = k with both digits set, at most the smaller factor's
popcount, so no carry crosses a byte and the byte's parity is the
coefficient of x^k.  At 256 set bits or more it keeps the loop, which is
exact at every size.  ``K = 16`` is measured: on the 6,000 products of
one decompose-bignum pass over its F2(X) inputs (seed 1, Python 3.11.7,
x86-64) the two paths cost the same at 12-15 set bits, and the products
took 25.7 ms on the loop alone, 14.2 ms with K = 16 and 14.2-15.4 ms
with any K from 8 to 24 (best of 25 interleaved rounds).

``gcd`` is Euclid's algorithm with the remainder taken inline.  ``sqrt``
reads the even-exponent digits off the base-2 text by slicing, which no
int/str digit limit covers.

``RationalFunctionField2`` sits here beside its kernel, so that only the
F2(X) descriptor makes ``fields.field_from_string`` compile it.  Its
parser finds the top-level '/' with ``fields._scan_marks``.
"""

import operator

from .errors import ParseError
from .fields import FieldElement, _Fractions, _parse_poly_text, _render_poly, _scan_marks, _trim

K = 16  # fewest set bits in the smaller factor for one integer product (see above)
DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # base-2 text -> one 0/1 byte per digit
PARITY_DIGITS = bytes.maketrans(bytes(range(256)), b"01" * 128)  # byte -> its parity digit


def _slots(a: int) -> int:
    """a with binary digit i moved to byte i: base 256 read as base 2."""
    return int.from_bytes(f"{a:b}".encode().translate(DIGIT_BYTES), "big")


def mul(a, b):
    """Product of packed polynomials a and b.

    Let b be the smaller factor.  With ``K`` to 255 set bits in b, the
    product is one int multiply of the byte-slot forms, read back one
    parity per byte: no byte of it counts 256 terms, so none carries.
    Otherwise it is the shift-xor loop.  Base-2 text is exempt from the
    int/str digit limit, so no operand size is refused.
    """
    if a < b:
        a, b = b, a
    if b < 2:
        return a if b else 0
    if K <= b.bit_count() < 256:
        product = (_slots(a) * _slots(b)).to_bytes(a.bit_length() + b.bit_length() - 1, "big")
        return int(product.translate(PARITY_DIGITS), 2)
    c = 0
    while b:
        low = b & -b  # lowest set bit x^i; a * low is a shifted by i
        c ^= a * low
        b ^= low
    return c


def divmod_(a, b):
    """Quotient and remainder of a divided by b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = 0
    nb = b.bit_length()
    na = a.bit_length()
    while na >= nb:
        shift = na - nb
        q ^= 1 << shift
        a ^= b << shift
        na = a.bit_length()
    return q, a


def gcd(a, b):
    """Greatest common divisor of packed polynomials a and b (Euclid)."""
    if a == 1 or b == 1:
        return 1
    while b:
        nb = b.bit_length()
        while (na := a.bit_length()) >= nb:  # a %= b
            a ^= b << (na - nb)
        a, b = b, a
    return a


def sqrt(a):
    """Square root of a, or None if some exponent is odd."""
    digits = bin(a)[2:]  # digits[j] is the coefficient of x^(len(digits) - 1 - j)
    if len(digits) % 2 == 0 or "1" in digits[1::2]:  # an odd degree or an odd exponent
        return None
    return int(digits[::2], 2)


def _quo(a: int, g: int) -> int:
    """Exact quotient of packed polynomials, for g dividing a."""
    return a if g == 1 else divmod_(a, g)[0]


class RationalFunctionField2(_Fractions):
    """GF(2)(x), rational functions over GF(2) in one variable.

    Payloads are pairs of the packed GF(2)[x] polynomials above in
    lowest terms with nonzero denominator; that form is unique because
    the only unit is 1.  This field has characteristic 2 but is not
    perfect: x has no square root, so ``sqrt`` is partial and the
    characteristic-2 solver can fail here, by design.
    """

    characteristic = 2
    perfect = False
    _gcd = staticmethod(gcd)
    _quo = staticmethod(_quo)
    _root = staticmethod(sqrt)
    _ring_mul = staticmethod(mul)
    _ring_add = _ring_sub = operator.xor

    def __repr__(self):
        return "F2(X)"

    def _from_int(self, n):
        return (n % 2, 1)

    def _inv(self, a):
        return (a[1], a[0])

    def _parse_payload(self, text, start, end):
        slash, groups, opened = end, set(), 0
        for i, ch in _scan_marks(text, start, end):
            if ch == "(":
                opened = i
            elif ch == ")":
                groups.add((opened, i + 1))  # a top-level group text[opened:i+1]
            elif ch == "/" and slash == end:
                slash = i

        def side(start, end):  # text[start:end] trimmed and packed, less parens around it
            start, end = _trim(text, start, end)
            if (start, end) in groups:
                start, end = _trim(text, start + 1, end - 1)
            return sum(1 << e for e, c in enumerate(_parse_poly_text(text, "x", start, end)) if c % 2)

        den = side(slash + 1, end) if slash < end else 1
        if den == 0:
            raise ParseError("zero denominator", text, _trim(text, slash + 1, end)[0])
        return self._reduce(side(start, slash), den)

    def _render(self, a):
        num, den = a
        num_text = _render_bits(num, "x")
        if den == 1:
            return num_text
        return f"({num_text})/({_render_bits(den, 'x')})"

    def random_element(self, rng) -> FieldElement:
        num = rng.randrange(32)  # numerator and denominator of degree <= 4
        den = 0
        while den == 0:
            den = rng.randrange(32)
        return FieldElement(self, self._reduce(num, den))


def _render_bits(bits: int, var: str) -> str:
    return _render_poly([(bits >> e) & 1 for e in range(bits.bit_length())], var)
