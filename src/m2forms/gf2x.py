"""Polynomials over GF(2) packed into Python integers.

The polynomial b_n x^n + ... + b_1 x + b_0 is stored as the integer with
bit i equal to b_i, so addition is xor and the zero polynomial is 0.
All functions here take and return plain ints.

``mul`` adds one shifted copy of the larger operand per set bit of the
smaller.  ``gcd`` is Euclid's algorithm with the remainder taken inline.
"""


def mul(a, b):
    """Product of packed polynomials a and b."""
    if a < b:
        a, b = b, a
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
