"""Dense polynomial arithmetic over GF(p).

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Every function
takes the prime p explicitly and returns a normalized tuple.
"""


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
