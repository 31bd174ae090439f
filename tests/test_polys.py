"""Dense GF(p)[t] kernel checked against sympy's galoistools.

sympy is an independent implementation over descending coefficient
lists; the module is skipped where sympy is not installed.
"""

import itertools
import random

import pytest

from m2forms import polys

sympy = pytest.importorskip("sympy")
from sympy.polys import galoistools as gt  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

PRIMES = (2, 3, 5, 7, 97)


def to_sym(a):
    return [ZZ(c) for c in reversed(a)]


def from_sym(f):
    return tuple(int(c) for c in reversed(f))


def rand_poly(rng, p, max_len=9):
    return polys.normalize([rng.randrange(p) for _ in range(rng.randrange(max_len + 1))], p)


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_is_irreducible_on_every_monic_polynomial(p, max_degree):
    checked = 0
    for degree in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=degree):
            f = low + (1,)
            assert polys.is_irreducible(f, p) == gt.gf_irreducible_p(to_sym(f), p, ZZ), f
            checked += 1
    assert checked == sum(p**d for d in range(1, max_degree + 1))


@pytest.mark.parametrize("p", PRIMES)
def test_ext_gcd_matches_gf_gcdex(p):
    rng = random.Random(p)
    for _ in range(300):
        a, b = rand_poly(rng, p), rand_poly(rng, p)
        g, s = polys.ext_gcd(a, b, p)
        residue = polys.sub(polys.mul(s, a, p), g, p)  # s*a - g, a multiple of b
        assert (polys.mod(residue, b, p) if b else residue) == ()
        sym_s, _, sym_g = gt.gf_gcdex(to_sym(a), to_sym(b), p, ZZ)
        assert (g, s) == (from_sym(sym_g), from_sym(sym_s)), (a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_matches_gf_div(p):
    rng = random.Random(100 + p)
    for _ in range(300):
        a, b = rand_poly(rng, p, 14), rand_poly(rng, p)
        if not b:
            with pytest.raises(ZeroDivisionError):
                polys.divmod_(a, b, p)
            continue
        q, r = gt.gf_div(to_sym(a), to_sym(b), p, ZZ)
        assert polys.divmod_(a, b, p) == (from_sym(q), from_sym(r)), (a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_inv_mod_matches_gf_gcdex_cofactor(p):
    rng = random.Random(200 + p)
    inverted = 0
    for _ in range(300):
        m = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 7))) + (1,)  # monic
        a = polys.mod(rand_poly(rng, p), m, p)
        if polys.degree(polys.ext_gcd(a, m, p)[0]) != 0:
            with pytest.raises(ZeroDivisionError):
                polys.inv_mod(a, m, p)
            continue
        inv = polys.inv_mod(a, m, p)
        sym_s, _, sym_g = gt.gf_gcdex(to_sym(a), to_sym(m), p, ZZ)
        assert sym_g == [1]
        assert inv == from_sym(gt.gf_rem(sym_s, to_sym(m), p, ZZ)), (a, m)
        assert polys.mod(polys.mul(a, inv, p), m, p) == (1,)
        inverted += 1
    assert inverted > 100
