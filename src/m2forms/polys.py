"""Dense polynomial arithmetic over GF(p), and the GF(p^k) family on it.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Every function
takes the prime p explicitly and returns a normalized tuple.

``ExtensionField`` sits here beside its kernel, so that only a GF(p^k)
descriptor makes ``fields.field_from_string`` compile it.
"""

import operator

from .fields import Field, _parse_poly_text, _render_poly, _trim, is_prime


def normalize(coeffs, p):
    """Reduce coefficients mod p and strip trailing zeros."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(a):
    """Degree of a, with degree of the zero polynomial == -1."""
    return len(a) - 1


def add(a, b, p):
    n = max(len(a), len(b))
    return normalize(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p
    )


def sub(a, b, p):
    return add(a, neg(b, p), p)


def neg(a, p):
    return normalize([-c for c in a], p)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out, p)


def scale(a, c, p):
    return normalize([c * x for x in a], p)


def divmod_(a, b, p):
    """Quotient and remainder of a divided by b, for nonzero b."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c == 0:
            continue
        factor = c * inv_lead % p
        q[i - db] = factor
        for j, cb in enumerate(b):
            r[i - db + j] = (r[i - db + j] - factor * cb) % p
    return normalize(q, p), normalize(r, p)


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def ext_gcd(a, b, p):
    """Monic g = gcd(a, b) and s with s*a = g modulo b."""
    s0, s1 = (1,), ()
    while b:
        q, r = divmod_(a, b, p)
        a, b = b, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if not a:
        return (), s0
    c = pow(a[-1], -1, p)
    return scale(a, c, p), scale(s0, c, p)


def inv_mod(a, m, p):
    """Inverse of a modulo m, for gcd(a, m) == 1."""
    g, s = ext_gcd(a, m, p)
    if g != (1,):
        raise ZeroDivisionError("element is not invertible")
    return mod(s, m, p)


def pow_mod(a, e, m, p):
    """a**e modulo m by square and multiply, e >= 0."""
    result = (1,)
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return result


def is_irreducible(f, p):
    """Rabin irreducibility test for a monic f of degree >= 1 over GF(p).

    f is irreducible iff x**(p**k) == x mod f and, for every prime d
    dividing k, gcd(x**(p**(k/d)) - x, f) is constant.  The loop takes
    every divisor d > 1 of k instead of factoring k; the composite ones
    do not change the verdict, because for a prime d' dividing d, k/d
    divides k/d', so x**(p**(k/d)) - x divides x**(p**(k/d')) - x and
    its gcd with f divides the gcd for d'.
    """
    k = degree(f)
    if k < 1:
        return False
    x = (0, 1)
    frob = [mod(x, f, p)]
    for _ in range(k):
        frob.append(pow_mod(frob[-1], p, f, p))
    if frob[k] != mod(x, f, p):
        return False
    for d in range(2, k + 1):
        if k % d == 0 and degree(ext_gcd(sub(frob[k // d], x, p), f, p)[0]) > 0:
            return False
    return True


# Odd-p extension fields up to this order run on tables.  The tables pay
# only when many operations share one build, as in the oracle's GF(9)
# square sets or repeated decompositions: building GF(25)'s, a 625-entry
# sum table among them, costs 0.4-0.5 ms more than a tuple-path field
# (GF(9)'s 0.1 ms), what two decompositions save, and the cost grows with
# q^2.  25 is the largest order a benchmark workload runs on.  p = 2 has
# no cap: xor replaces the sum table, and its log tables hold at most 766
# entries (GF(2^8)).
_TABLE_MAX_ORDER = 25

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


class ExtensionField(Field):
    """GF(p^k) as polynomials modulo a monic irreducible of degree k.

    ``_build`` is the one binder: it binds every payload hook on the
    descriptor as a closure over p, the modulus and any tables, so no
    operation tests p or q and no hook reads an attribute when it runs.
    One tuple multiply, one tuple parse and ``_digits``, which numbers
    ``elements()``, serve every q.  Odd q > 25 keeps the tuples: a
    payload is an ascending coefficient tuple over GF(p) of degree < k,
    and the hooks are this module's operations on it.  For p = 2 and odd
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
            modulus = _parse_dense(modulus, p)
        else:
            modulus = normalize(tuple(modulus), p)
        return (p, k, modulus)

    def _build(self, p, k, modulus):
        if degree(modulus) != k:
            raise ValueError(f"modulus must have degree {k}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {_render_poly(modulus, 't')} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.characteristic = p
        self.order = q = p**k
        self.modulus = modulus

        def mulmod(a, b):
            return mod(mul(a, b, p), modulus, p)

        def parse(text, start, end):
            return mod(normalize(_parse_poly_text(text, "t", start, end), p), modulus, p)

        if p != 2 and q > _TABLE_MAX_ORDER:
            self._from_int = lambda n: normalize((n,), p)
            self._add = lambda a, b: add(a, b, p)
            self._neg = lambda a: neg(a, p)
            self._mul = mulmod
            self._inv = lambda a: inv_mod(a, modulus, p)
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
                v = mulmod(v, g)
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
        self._parse_payload = lambda *span: enc(parse(*span))
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
    """Parse text in t as a normalized polynomial over GF(p)."""
    return normalize(_parse_poly_text(s, "t", *_trim(s, 0, len(s))), p)
