"""The field core, the Q and GF(p) families, and field descriptors.

Four families are provided, each with a unique canonical form per element
so that equality of payloads is equality in the field:

  Rationals               reduced fractions n/d as int pairs (n, d), d > 0
  PrimeField(p)           residues in [0, p)
  ExtensionField(p, k)    polynomials of degree < k modulo a monic
                          irreducible modulus, as packed ints on tables
                          or as coefficient tuples (in polys)
  RationalFunctionField2  quotients of GF(2)[x] polynomials in lowest
                          terms, packed into int pairs (in gf2x)

The last two sit beside their kernels: ``field_from_string`` imports polys
or gf2x only for their descriptors, so a Q or GF(p) request compiles
neither.

Field objects are lightweight descriptors that double as element
factories: ``GF5 = PrimeField(5); a = GF5(3)``.  Elements are immutable,
hashable, and support the usual operators plus ``frobenius``, ``sqrt``
and ``is_square``.  The first three families are perfect; the rational
function field is not, and its missing square roots are what the
characteristic-2 solver reports via NotASquareError.

The finite families write their own payload hooks; ``_Fractions`` writes
Q's and F2(X)'s once, on the operators of each ring.  ``Field`` supplies
the shared ones once: ``_sub`` is ``a + (-b)``, ``_div`` and
``FieldElement.inv`` refuse zero (so no ``_inv`` checks), ``_pow`` is
square-and-multiply unless a family binds its own (table fields use
logs), ``_is_zero`` is ``not a``, ``_render`` is ``str(a)``, and for the
finite families ``elements``, ``random_element`` and ``sqrt`` run over
``_payload_from_index``, which numbers the payloads 0..q-1 in canonical
order.  ``PrimeField`` binds ``pow`` for both of its own: ``pow(a, e,
p)`` for ``_pow`` and ``pow(a, -1, p)``, extended Euclid, for ``_inv``;
``polys`` inverts the same way.

Descriptors are interned by class and normalized key, so every spelling
of a field is one object and field equality is identity.
"""

from __future__ import annotations

import math
import operator
import re
import threading
import weakref

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

# (class, key) -> descriptor, while it or one of its elements is alive
_FIELDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_FIELDS_LOCK = threading.Lock()


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


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    """The span ``text[start:end]`` less the whitespace at either end."""
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _parse_poly_text(text: str, var: str, start: int, end: int) -> list[int]:
    """Parse the span ``text[start:end]``, which has no whitespace at
    either end, as a sum of terms in ``var``.

    Terms are ``c``, ``t``, ``t^e``, ``c*t`` and ``c*t^e``, joined by
    '+' or '-'; digits are ASCII 0-9 only.  Whitespace may stand between
    tokens, and the digits of one number are one token.  Returns the
    accumulated signed coefficients in ascending degree; callers reduce
    them into their own field.  Error positions are indices into the
    whole ``text``.
    """
    if end == start:
        raise ParseError("empty polynomial", text, start)
    # sign, coefficient, '*', then the variable with an optional '^' and
    # exponent; each token takes the whitespace after it
    term = re.compile(rf"([+-]?)\s*([0-9]*)\s*(\*?)\s*(?:({var})\s*(?:\^\s*([0-9]*))?)?\s*")
    coeffs: list[int] = []
    i = start
    while i < end:
        m = term.match(text, i, end)
        sign, digits, star, has_var, exp_digits = m.groups()
        if not sign and i > start:
            raise ParseError("expected '+' or '-'", text, i)
        coeff = _parse_int(digits, text, m.start(2)) if digits else 1
        if star and not has_var:  # the match ends where the variable was due
            raise ParseError(f"expected '{var}' after '*'", text, m.end())
        if exp_digits == "":
            raise ParseError("expected exponent digits", text, m.start(5))
        exp = 1 if has_var else 0
        if exp_digits:
            exp = _parse_int(exp_digits, text, m.start(5))
            if exp > _MAX_EXPONENT:
                raise ParseError("exponent too large", text, m.start(5))
        if star and not digits:  # '*' cannot start a term
            raise ParseError("expected a term", text, m.start(3))
        if digits and has_var and not star:  # without '*' the term ends at its digits
            raise ParseError("expected '+' or '-'", text, m.start(4))
        if not (digits or has_var):
            raise ParseError("expected a term", text, m.end())
        coeffs += [0] * (exp + 1 - len(coeffs))
        coeffs[exp] += -coeff if sign == "-" else coeff
        i = m.end()
    return coeffs


_MARKS = re.compile(r"[][,/()]")


def _scan_marks(text: str, start: int, end: int):
    """Yield ``(i, ch)`` for the marks of ``text[start:end]`` outside parentheses.

    The marks are '[', ']', ',', '/' and each parenthesis that opens or
    closes at depth 0, so a yielded '(' is followed by its own ')'.  An
    unmatched ')' raises at its position, an unclosed '(' at ``end - 1``.
    """
    depth = 0
    for m in _MARKS.finditer(text, start, end):
        i = m.start()
        ch = text[i]
        if ch == ")":
            if not depth:
                raise ParseError("unbalanced ')'", text, i)
            depth -= 1
        if not depth:
            yield i, ch
        if ch == "(":
            depth += 1
    if depth:
        raise ParseError("unbalanced '('", text, end - 1)


def _same(a):
    return a


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
        """Parse element text in this field's grammar.

        Whitespace may stand between tokens, but not inside a number, and
        error positions index ``text`` as given.
        """
        text = str(text)
        start, end = _trim(text, 0, len(text))
        if start == end:
            raise ParseError("empty element", text, 0)
        return FieldElement(self, self._parse_payload(text, start, end))

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

    def _payload_ops(self):
        """``(add, sub, mul, div, canonical)`` on payloads, for building answers.

        A payload these hooks return is canonical already, so ``canonical``
        is the identity.  ``_Fractions`` returns unreduced operations and
        its ``_reduce`` instead.
        """
        return self._add, self._sub, self._mul, self._div, _same

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

    The ring binds ``_gcd``, an exact quotient ``_quo``, ``_root`` (a
    square root or None) and its operators ``_ring_mul``, ``_ring_add``
    and ``_ring_sub``; the fraction arithmetic is written once on them.
    No gcd of full products is taken: ``_add`` cancels only against
    gcd(d1, d2) (Knuth 4.5.1), and ``_mul``, hence ``_div`` and
    ``_pow``, cross-cancels gcd(n1, d2) and gcd(n2, d1) first (Henrici).
    Either returns without a gcd for a zero operand: a sum is the other
    operand's payload and a product the canonical zero (0, 1).

    ``_payload_ops`` defines the unreduced operations on the same ring
    operators: fraction pairs never put in lowest terms, with
    ``_reduce`` as the canonical step.  The odd-characteristic
    construction, hence Q's, reduces each answer entry once with them,
    and ``_sums_to`` never reduces.
    """

    def _reduce(self, num, den):
        g = self._gcd(num, den)
        return (self._quo(num, g), self._quo(den, g))

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        gcd, quo, mul, add = self._gcd, self._quo, self._ring_mul, self._ring_add
        g = gcd(d1, d2)
        if g == 1:
            return (add(mul(n1, d2), mul(n2, d1)), mul(d1, d2))
        s = quo(d1, g)
        t = add(mul(n1, quo(d2, g)), mul(n2, s))
        g = gcd(t, g)  # the sum is t / (s * d2), and only gcd(t, g) cancels
        return (quo(t, g), mul(s, quo(d2, g)))

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return (0, 1)
        gcd, quo, mul = self._gcd, self._quo, self._ring_mul
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        return (mul(quo(n1, g1), quo(n2, g2)), mul(quo(d1, g2), quo(d2, g1)))

    def _neg(self, a):
        return (self._ring_sub(0, a[0]), a[1])

    def _payload_ops(self):
        """``(plus, minus, times, over, canonical)`` on unreduced pairs.

        A product multiplies straight through, a sum over unequal
        denominators cross-multiplies, and a zero operand short-cuts
        both, so no gcd is taken; a quotient is the cross product, and a
        Q denominator's sign is left to ``_reduce``.  ``canonical`` is
        ``_reduce`` on a pair, which a denominator of 1 needs no gcd for.
        """
        mul, add, sub, reduce = self._ring_mul, self._ring_add, self._ring_sub, self._reduce

        def plus(a, b):
            (n1, d1), (n2, d2) = a, b
            if not n1:
                return b
            if not n2:
                return a
            if d1 == d2:
                return (add(n1, n2), d1)
            return (add(mul(n1, d2), mul(n2, d1)), mul(d1, d2))

        def minus(a, b):
            return plus(a, (sub(0, b[0]), b[1]))

        def times(a, b):
            (n1, d1), (n2, d2) = a, b
            if not n1 or not n2:
                return (0, 1)
            return (mul(n1, n2), mul(d1, d2))

        def over(a, b):
            (n1, d1), (n2, d2) = a, b
            if not n2:
                raise ZeroDivisionError("division by zero")
            if not n1:
                return (0, 1)
            return (mul(n1, d2), mul(d1, n2))

        def canonical(a):
            return a if a[1] == 1 else reduce(*a)

        return plus, minus, times, over, canonical

    def _sums_to(self, terms, target):
        """Whether sum(a * X**2) over ``terms`` is ``target``, never reducing.

        ``terms`` pairs a coefficient's payload with the four entry
        payloads of its X, and ``target`` holds four payloads.  Each
        a*X**2 is (a*t)*X - (a*det X)*I with t = tr X (Cayley-Hamilton),
        added entry by entry with the unreduced ``_payload_ops``, so no
        gcd is taken.  A sum S/D matches the target's n/d when S*d == n*D.
        """
        plus, minus, times, *_ = self._payload_ops()
        sums = [(0, 1)] * 4
        for a, (x11, x12, x21, x22) in terms:
            if not a[0] or not (x11[0] or x12[0] or x21[0] or x22[0]):
                continue
            t = times(a, plus(x11, x22))
            det = times(a, minus(times(x11, x22), times(x12, x21)))
            term = (minus(times(t, x11), det), times(t, x12), times(t, x21),
                    minus(times(t, x22), det))
            sums = [plus(s, x) for s, x in zip(sums, term)]
        mul = self._ring_mul
        return all(mul(s, d) == mul(n, den) for (s, den), (n, d) in zip(sums, target))

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

    _RE = re.compile(r"([+-]?)\s*([0-9]+)(?:\s*/\s*([0-9]+))?")
    _quo = operator.floordiv
    _ring_mul, _ring_add, _ring_sub = operator.mul, operator.add, operator.sub

    def __repr__(self):
        return "Q"

    @staticmethod
    def _gcd(n: int, d: int) -> int:
        """gcd(n, d) with the sign of d, so that ``_reduce`` leaves d > 0."""
        g = math.gcd(n, d)
        return g if d > 0 else -g

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

    def _inv(self, a):
        n, d = a
        return (d, n) if n > 0 else (-d, -n)

    def _render(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def _parse_payload(self, text, start, end):
        m = self._RE.fullmatch(text, start, end)
        if not m:
            raise ParseError("expected [-]digits[/digits]", text, start)
        sign, num, den = m.groups()
        den = 1 if den is None else _parse_int(den, text, m.start(3))
        if den == 0:
            raise ParseError("zero denominator", text, m.start(3))
        num = _parse_int(num, text, start)
        return self._reduce(-num if sign == "-" else num, den)

    def random_element(self, rng) -> FieldElement:
        num = rng.randint(-(10**6), 10**6)
        den = rng.randint(1, 10**6)
        return FieldElement(self, self._reduce(num, den))


class PrimeField(Field):
    """GF(p) for prime p, with least nonnegative residue payloads.

    ``_pow`` is ``pow(a, e, p)`` and ``_inv`` is ``pow(a, -1, p)``, which
    runs extended Euclid: at p = 2**61 - 1 it is about four times faster
    than Fermat's ``pow(a, p - 2, p)``.  ``_div`` and ``inv`` refuse zero
    first, so ``pow``'s ValueError for a non-invertible argument is never
    reached.
    """

    _RE = re.compile(r"([+-]?)\s*([0-9]+)")

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
        return pow(a, -1, self.p)

    def _pow(self, a, e):
        return pow(a, e, self.p)

    def _parse_payload(self, text, start, end):
        m = self._RE.fullmatch(text, start, end)
        if not m:
            raise ParseError("expected [-]digits", text, start)
        n = _parse_int(m[2], text, start)
        return (-n if m[1] == "-" else n) % self.p

    def _payload_from_index(self, idx: int):
        return idx


# Q, F2(X), GF(q) or GF(p^k), the GF forms with an optional ;modulus=<poly in t>;
# compiled on first use, so importing the module does not pay for it
_FIELD_PATTERN = (
    r"\s*(?:(Q)|(F2)\s*\(\s*X\s*\)"
    r"|GF\s*\(\s*([0-9]+)\s*(?:\^\s*([0-9]+)\s*)?\)(?:\s*;\s*modulus\s*=\s*(\S.*?))?)\s*"
)


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
    modulus.  Whitespace may stand between tokens, but not inside a
    number or a name.
    """
    m = re.fullmatch(_FIELD_PATTERN, text, re.DOTALL)
    if not m:
        raise ParseError(f"unrecognized field: {text!r}", text, 0)
    rationals, f2x, base, exponent, modulus = m.groups()
    if rationals:
        return Rationals()
    if f2x:
        from .gf2x import RationalFunctionField2

        return RationalFunctionField2()
    base = _parse_int(base, text, 0)
    if base >= _PRIME_BOUND:  # above every supported prime and field order
        raise ParseError("orders and characteristics from 2**64 up are not supported", text, 0)
    if exponent is None:
        pk = _prime_power(base)
        if pk is None:
            raise ParseError(f"{base} is not a prime power", text, 0)
        p, k = pk
    else:
        p, k = base, _parse_int(exponent, text, 0)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", text, 0)
        if k < 1:
            raise ParseError("extension degree must be positive", text, 0)
    try:
        if k == 1:
            if modulus is not None:
                raise ParseError("prime fields take no modulus", text, 0)
            return PrimeField(p)
        from .polys import ExtensionField

        return ExtensionField(p, k, modulus)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), text, 0) from None
