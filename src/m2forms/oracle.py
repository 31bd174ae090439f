"""Brute-force representability checks over small finite fields.

Independent of the constructive solver: everything here is plain
enumeration of all q**4 matrices.  Two-term queries precompute one
term's image set and look up the residual, so a full sweep costs
O(q**4) instead of O(q**8).  Enumeration is lexicographic in the entry
order (e11, e12, e21, e22) over each field's canonical element order,
which makes witnesses and first counterexamples deterministic.  A
square set enumerates the entries' payloads in that order and squares
them with the field's payload hooks; only its members and their first
preimages become ``Mat2``.

``first_solution`` and ``first_unrepresentable`` answer every one- and
two-term query (CLI, single-term explanation) and own their bounds.  A
one-term form a is the two-term form a, 0: the square set of a zero
coefficient is {0} and needs no enumeration, so a one-term query stops
at its first preimage.
"""

from __future__ import annotations

import itertools

from .errors import FieldTooLargeError, InfiniteFieldError
from .fields import Field, FieldElement
from .matrices import Mat2

MAX_ORDER = 16  # bound for building square sets
SWEEP_MAX_ORDER = 5  # bound for all-targets sweeps


def _check_finite(field: Field, bound: int, name: str = "bound"):
    if not field.finite:
        raise InfiniteFieldError(f"cannot enumerate matrices over {field}")
    if field.order > bound:
        raise FieldTooLargeError(f"{field} has order {field.order}, above the {name} {bound}")


def check_term_count(coeffs) -> None:
    """Refuse an empty form, and forms of more than two terms, which the
    oracle cannot enumerate."""
    if not coeffs:
        raise ValueError("a form needs at least one coefficient")
    if len(coeffs) > 2:
        raise FieldTooLargeError("the oracle supports at most two coefficients")


def all_matrices(field: Field):
    """All q**4 matrices, lexicographic by (e11, e12, e21, e22)."""
    elems = list(field.elements())
    for entries in itertools.product(elems, repeat=4):
        yield Mat2(*entries)


class SquareSet:
    """The image set {coeff * X**2} over all 2x2 matrices of a small field.

    ``first_preimage`` maps each member to the first X (in enumeration
    order) whose scaled square it is; its keys are the members.
    """

    __slots__ = ("field", "coeff", "first_preimage")

    def __init__(self, field: Field, coeff: FieldElement, first_preimage: dict[Mat2, Mat2]):
        self.field, self.coeff, self.first_preimage = field, coeff, first_preimage

    @property
    def members(self):
        return self.first_preimage.keys()

    def __contains__(self, matrix: Mat2) -> bool:
        return matrix in self.first_preimage


def build_square_set(field: Field, coeff) -> SquareSet:
    """Enumerate {coeff * X**2 : X in M2(field)} for a field of order <= 16.

    X = [[a,b],[c,d]] runs over payload 4-tuples in ``all_matrices``
    order, and k*X**2 = [[k(a^2+bc), kb(a+d)], [kc(a+d), k(d^2+bc)]]
    comes from the field's ``_add`` and ``_mul`` hooks, with the products
    fixed by a, b and c taken out of the inner loops.  Only a new square
    and its first X become ``Mat2``s, over the field's own elements.
    """
    _check_finite(field, MAX_ORDER)
    coeff = field(coeff)
    if not coeff:  # 0 * X**2 == 0, first reached at the zero matrix
        zero = Mat2.zero(field)
        return SquareSet(field, coeff, {zero: zero})
    add, mul, k = field._add, field._mul, coeff.payload
    elems = list(field.elements())
    element = {e.payload: e for e in elems}
    k_squares = [mul(k, mul(e.payload, e.payload)) for e in elems]  # k*d^2 for each d
    first: dict[tuple, Mat2] = {}  # payload 4-tuple of k*X^2 -> first X
    for ea, ka2 in zip(elems, k_squares):
        sums = [add(ea.payload, e.payload) for e in elems]  # a+d for each d
        for eb in elems:
            kb = mul(k, eb.payload)
            for ec in elems:
                c = ec.payload
                kc, kbc = mul(k, c), mul(kb, c)
                e11 = add(ka2, kbc)
                for ed, kd2, s in zip(elems, k_squares, sums):
                    key = (e11, mul(kb, s), mul(kc, s), add(kd2, kbc))
                    if key not in first:
                        first[key] = Mat2(ea, eb, ec, ed)
    first_preimage = {Mat2(*map(element.__getitem__, key)): x for key, x in first.items()}
    return SquareSet(field, coeff, first_preimage)


def representable_two_term(
    a1, a2, target: Mat2, field: Field, *, square_set: SquareSet | None = None
) -> tuple[Mat2, Mat2] | None:
    """First (X1, X2) with a1*X1**2 + a2*X2**2 == target, else None.

    Scans X1 in enumeration order and looks the residual up in the
    square set of a2 (reused across calls when passed in).
    """
    _check_finite(field, MAX_ORDER)
    a1 = field(a1)
    if square_set is None or square_set.coeff != field(a2):
        square_set = build_square_set(field, a2)
    for x1 in all_matrices(field):
        x2 = square_set.first_preimage.get(target - x1.square().scale(a1))
        if x2 is not None:
            return x1, x2
    return None


def check_universal_exhaustive(a1, a2, field: Field) -> tuple[bool, Mat2 | None]:
    """Sweep every target of a field of order <= 5.

    Returns (True, None) when every one of the q**4 targets is a value
    of a1*X1**2 + a2*X2**2, else (False, first unrepresentable target).
    """
    _check_finite(field, SWEEP_MAX_ORDER, "sweep bound")
    set1 = build_square_set(field, a1)
    set2 = build_square_set(field, a2)
    values1 = list(set1.first_preimage)  # insertion order; deterministic
    for target in all_matrices(field):
        if not any(target - v in set2.first_preimage for v in values1):
            return False, target
    return True, None


def first_solution(coeffs, target: Mat2, field: Field) -> tuple[Mat2, ...] | None:
    """First (X1,) or (X1, X2) with sum(ai * Xi**2) == target, else None.

    Takes one or two coefficients over a field of order <= 16.
    """
    check_term_count(coeffs)
    a1, a2 = (*coeffs, 0)[:2]  # a one-term form a is the two-term form a, 0
    found = representable_two_term(a1, a2, target, field)
    return None if found is None else found[: len(coeffs)]


def first_unrepresentable(coeffs, field: Field) -> Mat2 | None:
    """First target that sum(ai * Xi**2) misses, or None when it hits all q**4.

    Takes one or two coefficients over a field of order <= 5.
    """
    check_term_count(coeffs)
    a1, a2 = (*coeffs, 0)[:2]
    return check_universal_exhaustive(a1, a2, field)[1]
