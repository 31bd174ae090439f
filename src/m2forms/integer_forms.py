"""Universality of diagonal forms over the 2x2 integer matrices.

Lee's classical arithmetic criterion needs no field at all, only integer
gcds, so this module imports none of the field code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate


def lee_criterion(coeffs: Sequence[int]) -> bool:
    """Universality of sum(ai * Xi**2) over the 2x2 integer matrices.

    True iff no prime divides all but at most one of the integer
    coefficients (equivalently, every leave-one-out gcd is 1) and at
    least three coefficients are not multiples of 4.  Zero counts as
    divisible by everything, so the empty gcd fails.  Each leave-one-out
    gcd joins a prefix gcd and a suffix gcd, so m coefficients take O(m)
    gcds.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    # prefix[i] = gcd(coeffs[:i]) and suffix[i] = gcd(coeffs[i:])
    prefix = list(accumulate(coeffs, math.gcd, initial=0))
    suffix = list(accumulate(reversed(coeffs), math.gcd, initial=0))[::-1]
    if any(math.gcd(prefix[i], suffix[i + 1]) != 1 for i in range(len(coeffs))):
        return False
    return sum(1 for a in coeffs if a % 4 != 0) >= 3
