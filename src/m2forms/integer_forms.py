"""Universality of diagonal forms over the 2x2 integer matrices.

Lee's classical arithmetic criterion needs no field at all, only integer
gcds, so this module imports none of the field code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def lee_criterion(coeffs: Sequence[int]) -> bool:
    """Universality of sum(ai * Xi**2) over the 2x2 integer matrices.

    True iff no prime divides all but at most one of the integer
    coefficients (equivalently, every leave-one-out gcd is 1) and at
    least three coefficients are not multiples of 4.  Zero counts as
    divisible by everything, so the empty gcd fails.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    for i in range(len(coeffs)):
        rest = coeffs[:i] + coeffs[i + 1 :]
        if math.gcd(*rest) != 1:
            return False
    if sum(1 for a in coeffs if a % 4 != 0) < 3:
        return False
    return True
