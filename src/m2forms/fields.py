"""Exact arithmetic for the four supported field families.

Four families are provided, each with a unique canonical form per element
so that equality of payloads is equality in the field:

  Rationals               reduced fractions n/d as int pairs (n, d), d > 0
  PrimeField(p)           residues in [0, p)
  ExtensionField(p, k)    polynomials of degree < k modulo a monic
                          irreducible modulus, every hook bound per
                          descriptor by ``_build``: for p = 2 and odd
                          q <= 25 the int sum(c_i * w_i) over the
                          coefficients c_i of t^i, w_i = 2**i or
                          p**(k-1-i), run on log/antilog tables; odd
                          q > 25 ascending coefficient tuples over
                          GF(p) (see polys)
  RationalFunctionField2  quotients of GF(2)[x] polynomials in lowest
                          terms, packed into int pairs (see gf2x)

Field objects are lightweight descriptors that double as element
factories: ``GF5 = PrimeField(5); a = GF5(3)``.  Elements are immutable,
hashable, and support the usual operators plus ``frobenius``, ``sqrt``
and ``is_square``.  The first three families are perfect; the rational
function field is not, and its missing square roots are what the
characteristic-2 solver reports via NotASquareError.

Each family writes its own payload hooks.  ``Field`` supplies the shared
ones once: ``_sub`` is ``a + (-b)``, ``_div`` and ``FieldElement.inv``
refuse zero (so no ``_inv`` checks), ``_pow`` is square-and-multiply
unless a family binds its own (``PrimeField`` uses ``pow``, table fields
use logs), ``_is_zero`` is ``not a``, ``_render`` is ``str(a)``, and for
the finite families ``elements``, ``random_element`` and ``sqrt`` run
over ``_payload_from_index``, which numbers the payloads 0..q-1 in
canonical order.  ``_Fractions`` serves Q and F2(X).

Descriptors are interned by class and normalized key, so every spelling
of a field is one object and field equality is identity.
"""

from __future__ import annotations

import math
import operator
import re
import threading
import weakref

from . import gf2x, polys
from .errors import (
    CharacteristicError,
    FieldMismatchError,
    InfiniteFieldError,
    NotASquareError,
    ParseError,
)

_MAX_EXPONENT = 4096  # guardrail for parsed polynomial exponents

# witnesses make Miller-Rabin deterministic for n < 3.3 * 10**24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PRIME_BOUND = 2**64

# Odd-p extension fields up to this order run on tables.  The tables pay
# only when many operations share one build, as in the oracle's GF(9)
# square sets or repeated decompositions: building GF(25)'s, a 625-entry
# sum table among them, costs 0.4-0.5 ms more than a tuple-path field
# (GF(9)'s 0.1 ms), what two decompositions save, and the cost grows with
# q^2.  25 is the largest order a benchmark workload runs on.  p = 2 has
# no cap: xor replaces the sum table, and its log tables hold at most 766
# entries (GF(2^8)).
_TABLE_MAX_ORDER = 25

# (class, key) -> descriptor, while it or one of its elements is alive
_FIELDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_FIELDS_LOCK = threading.Lock()

# ascending coefficient tuples; reproducible defaults for small extensions
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),  # t^2+t+1
    (2, 3): (1, 1, 0, 1),  # t^3+t+1
    (2, 4): (1, 1, 0, 0, 1),  # t^4+t+1
    (2, 5): (1, 0, 1, 0, 0, 1),  # t^5+t^2+1
    (3, 2): (1, 0, 1),  # t^2+1
    (3, 3): (1, 2, 0, 1),  # t^3+2t+1
    (5, 2): (1, 1, 1),  # t^2+t+1
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_int(digits: str, text: str, pos: int) -> int:
    """int(digits); more digits than Python converts is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("too many digits", text, pos) from None


def _parse_poly_text(text: str, var: str, start: int, end: int) -> dict[int, int]:
    """Parse ``text[start:end]`` as a sum of terms in ``var``.

    Terms look like ``5``, ``t``, ``t^3``, ``2*t`` and are joined by '+'
    or '-'; digits are ASCII 0-9 only.  Returns accumulated signed
    coefficients by exponent; callers reduce them into their own field.
    Error positions are indices into the whole ``text``.
    """
    s, n = text, end
    if n == start:
        raise ParseError("empty polynomial", text, start)
    coeffs: dict[int, int] = {}
    i = start
    first = True
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-'", text, i)
        first = False
        j = i
        while j < n and "0" <= s[j] <= "9":
            j += 1
        coeff = _parse_int(s[i:j], text, i) if j > i else None
        i = j
        has_star = i < n and s[i] == "*"
        if has_star:
            i += 1
        exp = 0
        if i < n and s[i] == var:
            i += 1
            exp = 1
            if i < n and s[i] == "^":
                i += 1
                j = i
                while j < n and "0" <= s[j] <= "9":
                    j += 1
                if j == i:
                    raise ParseError("expected exponent digits", text, i)
                exp = _parse_int(s[i:j], text, i)
                if exp > _MAX_EXPONENT:
                    raise ParseError("exponent too large", text, i)
                i = j
        elif has_star:
            raise ParseError(f"expected '{var}' after '*'", text, i)
        if coeff is None:
            if exp == 0:
                raise ParseError("expected a term", text, i)
            coeff = 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    return coeffs


def _render_term(coeff: int, exp: int, var: str) -> str:
    if exp == 0:
        return str(coeff)
    base = var if exp == 1 else f"{var}^{exp}"
    return base if coeff == 1 else f"{coeff}*{base}"


def _render_poly(coeffs, var: str) -> str:
    """Ascending coefficients as a sum of terms, highest degree first."""
    terms = [_render_term(c, e, var) for e, c in reversed(list(enumerate(coeffs))) if c]
    return "+".join(terms) or "0"


class FieldElement:
    """Immutable canonical element of one of the supported fields.

    Equality and hashing go by field and payload, so ``==`` is exact
    equality of canonical forms.  Ints mix freely in arithmetic and are
    coerced into the element's field.
    """

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"operands from different fields: {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, rhs.payload))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.payload, rhs.payload))

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(lhs.payload, self.payload))

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, rhs.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._div(self.payload, rhs.payload))

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._div(lhs.payload, self.payload))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.payload))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        return FieldElement(self.field, self.field._pow(self.payload, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.payload == other.payload
        if isinstance(other, int):
            return self.payload == self.field._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.payload))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self.field._is_zero(self.payload)

    def inv(self) -> FieldElement:
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return FieldElement(self.field, self.field._inv(self.payload))

    def frobenius(self) -> FieldElement:
        """The map a -> a**char, an automorphism of perfect fields."""
        ch = self.field.characteristic
        if ch == 0:
            raise CharacteristicError("frobenius is undefined in characteristic 0")
        return self**ch

    def sqrt(self) -> FieldElement:
        """An exact square root; raises NotASquareError if none exists.

        Total over the perfect characteristic-2 fields, where it inverts
        frobenius and the root is unique.  Where roots come in +/- pairs
        the smaller canonical payload is returned.
        """
        return FieldElement(self.field, self.field._sqrt(self.payload))

    def is_square(self) -> bool:
        try:
            self.sqrt()
        except NotASquareError:
            return False
        return True

    def __str__(self):
        return self.field._render(self.payload)

    def __repr__(self):
        return f"{self.field!r}({self.field._render(self.payload)})"


class Field:
    """Base descriptor for a supported field; calls make elements."""

    characteristic: int = 0
    perfect: bool = True
    order: int | None = None  # None when infinite

    def __new__(cls, *args, **kwargs):
        """Look up the interned descriptor; build and validate it only on a miss."""
        key = cls._key(*args, **kwargs)
        with _FIELDS_LOCK:
            field = _FIELDS.get((cls, key))
            if field is None:
                field = super().__new__(cls)
                field._build(*key)
                field._args = key
                _FIELDS[cls, key] = field
        return field

    def __reduce__(self):
        return (type(self), self._args)

    @staticmethod
    def _key():
        return ()

    def _build(self):
        pass

    @property
    def finite(self) -> bool:
        return self.order is not None

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"element of {value.field} is not in {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, self._from_int(value))
        if isinstance(value, str):
            return self.parse(value)
        payload = self._from_other(value)
        return FieldElement(self, payload)

    def zero(self) -> FieldElement:
        return FieldElement(self, self._from_int(0))

    def one(self) -> FieldElement:
        return FieldElement(self, self._from_int(1))

    def parse(self, text: str) -> FieldElement:
        """Parse element text in this field's grammar; whitespace is ignored."""
        s = "".join(str(text).split())
        if not s:
            raise ParseError("empty element", text, 0)
        return FieldElement(self, self._parse_payload(s))

    def elements(self):
        """Iterate all elements in canonical order (finite fields only)."""
        if not self.finite:
            raise InfiniteFieldError(f"{self} is infinite")
        return (FieldElement(self, self._payload_from_index(i)) for i in range(self.order))

    def random_element(self, rng) -> FieldElement:
        """A uniformly random element of a finite field."""
        return FieldElement(self, self._payload_from_index(rng.randrange(self.order)))

    # payload-level hooks implemented by subclasses
    def _from_other(self, value):
        raise TypeError(f"cannot make a {self} element from {value!r}")

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _div(self, a, b):
        if self._is_zero(b):
            raise ZeroDivisionError("division by zero")
        return self._mul(a, self._inv(b))

    def _pow(self, a, e):
        result = self._from_int(1)
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    def _is_zero(self, a):
        return not a

    def _render(self, a):
        return str(a)

    def _sqrt(self, a):
        """Square root in a finite field; the infinite families override it.

        Tonelli-Shanks, returning the smaller payload of the pair +/-r.
        For even q, q - 1 is odd, so s = 0 and both loops are empty:
        Euler's test passes for every nonzero a, r = a**(q/2) is the
        unique root, and min(r, -r) is r since negation is the identity.
        """
        q, mul, pow_ = self.order, self._mul, self._pow
        if self._is_zero(a):
            return a
        one = self._from_int(1)
        m, s = q - 1, 0
        while m % 2 == 0:
            m, s = m // 2, s + 1
        # Euler's criterion: a**((q-1)/2) == t**(2**(s-1)) must be 1
        t = euler = pow_(a, m)
        for _ in range(s - 1):
            euler = mul(euler, euler)
        if euler != one:
            raise NotASquareError(FieldElement(self, a))
        r = pow_(a, (m + 1) // 2)
        if t != one:
            # a non-residue, from the top index down: the low indices are
            # GF(p), all squares when the extension degree is even
            candidates = map(self._payload_from_index, range(q - 1, 1, -1))
            z = next(c for c in candidates if pow_(c, (q - 1) // 2) != one)
            c = pow_(z, m)
            while t != one:
                i, t2 = 0, t
                while t2 != one:
                    t2 = mul(t2, t2)
                    i += 1
                b = pow_(c, 1 << (s - i - 1))
                s, c = i, mul(b, b)
                t, r = mul(t, c), mul(r, b)
        return min(r, self._neg(r))


class _Fractions(Field):
    """A fraction field: payloads are pairs (n, d) in lowest terms.

    The ring binds ``_gcd``, an exact quotient ``_quo`` and ``_root``, a
    square root or None.  No gcd of full products is taken: ``_add``
    cancels only against gcd(d1, d2) (Knuth 4.5.1), and ``_mul``, hence
    ``_div`` and ``_pow``, cross-cancels gcd(n1, d2) and gcd(n2, d1)
    first (Henrici); both stay per ring, on the ring's own operators.
    """

    def _reduce(self, num, den):
        g = self._gcd(num, den)
        return (self._quo(num, g), self._quo(den, g))

    def _is_zero(self, a):
        return a[0] == 0

    def _sqrt(self, a):
        num, den = self._root(a[0]), self._root(a[1])
        if num is None or den is None:
            raise NotASquareError(FieldElement(self, a))
        return (num, den)


class Rationals(_Fractions):
    """The field of rational numbers.

    A payload is an int pair (n, d) in lowest terms with d > 0, so equal
    rationals have equal payloads.
    """

    _RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
    _gcd = math.gcd
    _quo = operator.floordiv

    def __repr__(self):
        return "Q"

    @staticmethod
    def _root(n: int) -> int | None:
        return r if n >= 0 and (r := math.isqrt(n)) * r == n else None

    def _from_int(self, n):
        return (int(n), 1)  # int(): True is 1, and renders so

    def _from_other(self, value):
        from fractions import Fraction  # only callers passing one pay its import

        if isinstance(value, Fraction):
            return (value.numerator, value.denominator)
        return super()._from_other(value)

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        g = math.gcd(t, g)
        return (t // g, s * (d2 // g))

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
        return (n1 // g1 * (n2 // g2), d1 // g2 * (d2 // g1))

    def _neg(self, a):
        return (-a[0], a[1])

    def _inv(self, a):
        n, d = a
        return (d, n) if n > 0 else (-d, -n)

    def _render(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def _parse_payload(self, s):
        if not self._RE.match(s):
            raise ParseError("expected [-]digits[/digits]", s, 0)
        num, slash, den_text = s.partition("/")
        den = _parse_int(den_text, s, len(num) + 1) if slash else 1
        if den == 0:
            raise ParseError("zero denominator", s, len(num) + 1)
        return self._reduce(_parse_int(num, s, 0), den)

    def random_element(self, rng) -> FieldElement:
        num = rng.randint(-(10**6), 10**6)
        den = rng.randint(1, 10**6)
        return FieldElement(self, self._reduce(num, den))


class PrimeField(Field):
    """GF(p) for prime p, with least nonnegative residue payloads."""

    _RE = re.compile(r"^[+-]?[0-9]+$")

    @staticmethod
    def _key(p: int):
        return (p,)

    def _build(self, p):
        if p >= _PRIME_BOUND:
            raise ValueError(f"prime fields above 2**64 are not supported: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = self.order = p

    def __repr__(self):
        return f"GF({self.p})"

    def _from_int(self, n):
        return n % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _pow(self, a, e):
        return pow(a, e, self.p)

    def _parse_payload(self, s):
        if not self._RE.match(s):
            raise ParseError("expected [-]digits", s, 0)
        return _parse_int(s, s, 0) % self.p

    def _payload_from_index(self, idx: int):
        return idx


class ExtensionField(Field):
    """GF(p^k) as polynomials modulo a monic irreducible of degree k.

    ``_build`` is the one binder: it binds every payload hook on the
    descriptor as a closure over p, the modulus and any tables, so no
    operation tests p or q and no hook reads an attribute when it runs.
    One tuple multiply, one tuple parse and ``_digits``, which numbers
    ``elements()``, serve every q.  Odd q > 25 keeps the tuples: a
    payload is an ascending coefficient tuple over GF(p) of degree < k,
    and the hooks are polys' operations on it.  For p = 2 and odd
    q <= 25 a payload is the int sum(c_i * w_i) over the coefficients
    c_i of t^i; parsing and indexing go through the tuples and then that
    sum, and multiply, inverse and power read log/antilog tables that
    the tuple multiply builds.  p = 2 takes w_i = 2**i, so a payload is
    its ``elements()`` index, add and sub are xor, neg is the identity.
    Odd p takes w_i = p**(k-1-i), c0 the most significant digit, so int
    order is tuple order and ``_sqrt``'s ``min(r, -r)`` keeps the root
    the tuples gave; add, sub and neg are lookups in sum and negation
    tables.  ``modulus`` is the ascending tuple for every p.

    A default modulus is supplied for the small fields used throughout
    the tests; elsewhere one must be given (as an ascending tuple or as
    text in t).  Irreducibility is verified, which bounds supported
    fields to degree at most 8 over p at most 97.
    """

    @staticmethod
    def _key(p: int, k: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be at least 2")
        if p > 97 or k > 8:
            raise ValueError(
                "irreducibility checking supports degree <= 8 over p <= 97 only"
            )
        if modulus is None:
            try:
                modulus = _DEFAULT_MODULI[(p, k)]
            except KeyError:
                raise ValueError(
                    f"no default modulus for GF({p}^{k}); pass one explicitly"
                ) from None
        if isinstance(modulus, str):
            modulus = _parse_dense("".join(modulus.split()), p)
        else:
            modulus = polys.normalize(tuple(modulus), p)
        return (p, k, modulus)

    def _build(self, p, k, modulus):
        if polys.degree(modulus) != k:
            raise ValueError(f"modulus must have degree {k}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not polys.is_irreducible(modulus, p):
            raise ValueError(f"modulus {_render_poly(modulus, 't')} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.characteristic = p
        self.order = q = p**k
        self.modulus = modulus

        def mul(a, b):
            return polys.mod(polys.mul(a, b, p), modulus, p)

        def parse(s):
            return polys.mod(_parse_dense(s, p), modulus, p)

        if p != 2 and q > _TABLE_MAX_ORDER:
            self._from_int = lambda n: polys.normalize((n,), p)
            self._add = lambda a, b: polys.add(a, b, p)
            self._neg = lambda a: polys.neg(a, p)
            self._mul = mul
            self._inv = lambda a: polys.inv_mod(a, modulus, p)
            self._payload_from_index = lambda i: _digits(i, p)
            self._parse_payload = parse
            self._render = lambda a: _render_poly(a, "t")
            return

        if p == 2:
            weights = [1 << i for i in range(k)]
            self._add = self._sub = operator.xor
            self._neg = operator.pos  # -a == a in characteristic 2
        else:
            weights = [p ** (k - 1 - i) for i in range(k)]
            # addition is digit-wise mod p: plus[a][b] = a + b, minus[a] = -a
            plus = [[sum((a // w + b // w) % p * w for w in weights) for b in range(q)] for a in range(q)]
            minus = [row.index(0) for row in plus]  # -a is the b with a + b = 0
            self._add = lambda a, b: plus[a][b]
            self._sub = lambda a, b: plus[a][minus[b]]
            self._neg = minus.__getitem__

        def enc(v):  # an ascending coefficient tuple as its payload
            return sum(map(operator.mul, v, weights))

        # exp[n] = g**n for a generator g over 2(q-1) entries, so a sum of
        # two logs needs no modulo; log inverts it (log[0] is None)
        q1, one = q - 1, weights[0]
        tuples = [_digits(i, p) for i in range(q)]
        for g in tuples[p:]:  # from t on: the constants have order dividing p - 1
            exp, v = [], (1,)
            while True:  # g**0, g**1, ... until g**n is 1 again, so n is the order of g
                exp.append(enc(v))
                v = mul(v, g)
                if v == (1,):
                    break
            if len(exp) == q1:
                break
        exp += exp
        log = [None] * q
        for n in range(q1):
            log[exp[n]] = n

        self._from_int = lambda n: n % p * one
        self._payload_from_index = list(map(enc, tuples)).__getitem__
        self._parse_payload = lambda s: enc(parse(s))
        self._render = lambda a: _render_poly([a // w % p for w in weights], "t")
        self._mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
        self._inv = lambda a: exp[q1 - log[a]]
        self._pow = lambda a, e: exp[log[a] * e % q1] if a else (0 if e else one)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __str__(self):
        return f"GF({self.p}^{self.k});modulus={_render_poly(self.modulus, 't')}"


def _digits(n: int, p: int) -> tuple:
    """The base-p digits of n, least significant first: the ascending
    coefficient tuple of the element ``elements()`` numbers n."""
    digits = []
    while n:
        n, rem = divmod(n, p)
        digits.append(rem)
    return tuple(digits)


def _parse_dense(s: str, p: int) -> tuple:
    """Parse whitespace-free text in t as a normalized polynomial over GF(p)."""
    coeffs = _parse_poly_text(s, "t", 0, len(s))
    dense = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        dense[e] = c
    return polys.normalize(dense, p)


def _quo(a: int, g: int) -> int:
    """Exact quotient of packed polynomials, for g dividing a."""
    return a if g == 1 else gf2x.divmod_(a, g)[0]


class RationalFunctionField2(_Fractions):
    """GF(2)(x), rational functions over GF(2) in one variable.

    Payloads are pairs of packed GF(2)[x] polynomials (see gf2x) in
    lowest terms with nonzero denominator; that form is unique because
    the only unit is 1.  This field has characteristic 2 but is not
    perfect: x has no square root, so ``sqrt`` is partial and the
    characteristic-2 solver can fail here, by design.
    """

    characteristic = 2
    perfect = False
    _gcd = staticmethod(gf2x.gcd)
    _quo = staticmethod(_quo)
    _root = staticmethod(gf2x.sqrt)

    def __repr__(self):
        return "F2(X)"

    def _from_int(self, n):
        return (n % 2, 1)

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g = gf2x.gcd(d1, d2)
        if g == 1:
            return (gf2x.mul(n1, d2) ^ gf2x.mul(n2, d1), gf2x.mul(d1, d2))
        s = _quo(d1, g)
        t = gf2x.mul(n1, _quo(d2, g)) ^ gf2x.mul(n2, s)
        g = gf2x.gcd(t, g)
        return (_quo(t, g), gf2x.mul(s, _quo(d2, g)))

    _sub = _add  # characteristic 2

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        g1, g2 = gf2x.gcd(n1, d2), gf2x.gcd(n2, d1)
        return (gf2x.mul(_quo(n1, g1), _quo(n2, g2)), gf2x.mul(_quo(d1, g2), _quo(d2, g1)))

    def _neg(self, a):
        return a

    def _inv(self, a):
        return (a[1], a[0])

    def _parse_payload(self, s):
        depth = 0
        slash = -1
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ')'", s, i)
            elif ch == "/" and depth == 0:
                slash = i
                break
        if slash == -1:
            if depth != 0:
                raise ParseError("unbalanced '('", s, len(s) - 1)
            return self._reduce(_parse_poly_bits(s, *_strip_parens(s, 0, len(s))), 1)
        den = _parse_poly_bits(s, *_strip_parens(s, slash + 1, len(s)))
        if den == 0:
            raise ParseError("zero denominator", s, slash + 1)
        return self._reduce(_parse_poly_bits(s, *_strip_parens(s, 0, slash)), den)

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


def _strip_parens(s: str, start: int, end: int) -> tuple[int, int]:
    """The bounds of ``s[start:end]`` less one pair of parens spanning all of it."""
    if end - start >= 2 and s[start] == "(" and s[end - 1] == ")":
        depth = 0
        for i in range(start, end):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth == 0 and i != end - 1:
                    return start, end  # outer parens do not span the whole text
        return start + 1, end - 1
    return start, end


def _parse_poly_bits(s: str, start: int, end: int) -> int:
    """Parse whitespace-free ``s[start:end]`` in x as a packed GF(2)[x] polynomial."""
    bits = 0
    for e, c in _parse_poly_text(s, "x", start, end).items():
        if c % 2:
            bits |= 1 << e
    return bits


def _render_bits(bits: int, var: str) -> str:
    return _render_poly([(bits >> e) & 1 for e in range(bits.bit_length())], var)


_FIELD_RE = re.compile(r"^GF\(([0-9]+)(?:\^([0-9]+))?\)(?:;modulus=(.+))?$")


def _prime_power(n: int):
    """(p, k) with p prime and p**k == n, or None."""
    for k in range(1, n.bit_length()):
        p = 1 << -(-n.bit_length() // k)  # Newton's method from above to floor(n ** (1/k))
        while (r := ((k - 1) * p + n // p ** (k - 1)) // k) < p:
            p = r
        if p**k == n and is_prime(p):
            return (p, k)
    return None


def field_from_string(text: str) -> Field:
    """Build a field from its descriptor string.

    Accepted forms: ``Q``, ``GF(p)``, ``GF(p^k)``, ``F2(X)``, with an
    optional ``;modulus=<poly in t>`` suffix on the GF forms.  A bare
    prime power such as ``GF(9)`` is taken as GF(3^2) with the default
    modulus.
    """
    s = "".join(text.split())
    if s == "Q":
        return Rationals()
    if s == "F2(X)":
        return RationalFunctionField2()
    m = _FIELD_RE.match(s)
    if not m:
        raise ParseError(f"unrecognized field: {text!r}", text, 0)
    base = _parse_int(m.group(1), text, 0)
    if base >= _PRIME_BOUND:  # above every supported prime and field order
        raise ParseError("orders and characteristics from 2**64 up are not supported", text, 0)
    modulus = m.group(3)
    if m.group(2) is None:
        pk = _prime_power(base)
        if pk is None:
            raise ParseError(f"{base} is not a prime power", text, 0)
        p, k = pk
    else:
        p, k = base, _parse_int(m.group(2), text, 0)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", text, 0)
        if k < 1:
            raise ParseError("extension degree must be positive", text, 0)
    try:
        if k == 1:
            if modulus is not None:
                raise ParseError("prime fields take no modulus", text, 0)
            return PrimeField(p)
        return ExtensionField(p, k, modulus)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), text, 0) from None
