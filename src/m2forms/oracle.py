"""Brute-force representability checks over small finite fields.

Independent of the constructive solver: everything here is plain
enumeration of 2 x 2 matrices.  Two-term queries precompute one term's
image set and look up the residual, so a full sweep costs O(q**4)
instead of O(q**8).  Enumeration is lexicographic in the entry order
(e11, e12, e21, e22) over each field's canonical element order, which
makes witnesses and first counterexamples deterministic.  A square set
enumerates the entries' payloads in that order, squares them by lookups
in q x q sum and product tables of the field's payload hooks, built
afresh for each set, and keys its members by payload 4-tuples.  It
skips each X whose square an earlier X already gave: X after -X, and,
once every scalar is in, each X of trace 0, whose square is the scalar
-det(X) * I.  A sweep tests one target per similarity class (conjugating
a solution gives a solution), subtracting with the field's ``_sub``
hook, and walks the targets' payload 4-tuples only to find the first of
a missed class.  Only results (a first counterexample, a witness)
become ``Mat2``.  The X1 scan of a query stays on ``Mat2`` and forms
a1 * X1**2 as ``X1.square(a1)``.

``first_solution`` and ``first_unrepresentable`` answer every one- and
two-term query (CLI, single-term explanation) over fields of order at
most ``MAX_ORDER``, the one bound of square sets, queries and sweeps.
A one-term form a is the two-term form a, 0.  A zero term is the zero
matrix, so it goes first and X1 = 0 alone is tried: one lookup.
"""

from __future__ import annotations

import itertools

from .errors import FieldTooLargeError, InfiniteFieldError
from .fields import Field, FieldElement
from .matrices import Mat2, _payloads

MAX_ORDER = 16  # bound for every enumeration


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
    """The image set {coeff * X**2} over all 2x2 matrices of a finite field.

    ``first`` maps the payload 4-tuple of each member to the payload
    4-tuple of its first X (in enumeration order); ``members`` is its
    keys, and the field's canonical elements rebuild matrices from
    payloads.  Membership looks up the payload key of a ``Mat2`` over
    the set's own field.
    """

    __slots__ = ("field", "coeff", "_first", "_element")

    def __init__(self, field: Field, coeff: FieldElement, first: dict[tuple, tuple]):
        self.field, self.coeff, self._first = field, coeff, first
        self._element = {e.payload: e for e in field.elements()}

    def _matrix(self, payloads) -> Mat2:
        return Mat2(*map(self._element.__getitem__, payloads))

    @property
    def members(self):
        return self._first.keys()

    def __contains__(self, matrix) -> bool:
        return isinstance(matrix, Mat2) and matrix.field == self.field and _payloads(matrix) in self._first


def build_square_set(field: Field, coeff) -> SquareSet:
    """Enumerate {coeff * X**2 : X in M2(field)} for a field of order <= 16.

    X = [[a,b],[c,d]] runs over payload 4-tuples in ``all_matrices``
    order, and k*X**2 = [[k(a^2+bc), kb(a+d)], [kc(a+d), k(d^2+bc)]]
    is read from q x q tables, ``add[x][y]`` and ``mul[x][y]``, that
    call the field's ``_add`` and ``_mul`` hooks once per payload pair
    (keyed by payload, so no payload order is assumed).  The rows fixed
    by a, b and c are taken out of the inner loops, so the loop over d
    only looks entries up.  A new square's payload 4-tuple stores its
    first X's; no ``Mat2`` is made.  Every query and sweep builds a set,
    so this is where the oracle checks its field.

    Two rules skip an X whose square an earlier X gave, which
    ``setdefault`` would ignore, so the members and their order are
    those of the full enumeration.  (1) An (a, b, c) prefix is skipped
    when its first nonzero entry e has -e earlier in element order:
    -X has the same square and comes first (in characteristic 2,
    -X = X and nothing is skipped).  (2) Once the first row with a = 0
    and b != 0 has put in every scalar k*b*c*I (at d = 0), each X with
    a + d = 0 is skipped: by Cayley-Hamilton its square is -det(X) * I.
    """
    if not field.finite:
        raise InfiniteFieldError(f"cannot enumerate matrices over {field}")
    if field.order > MAX_ORDER:
        raise FieldTooLargeError(f"{field} has order {field.order}, above the bound {MAX_ORDER}")
    coeff = field(coeff)
    if not coeff:  # 0 * X**2 == 0, first reached at the zero matrix
        zero = (field.zero().payload,) * 4
        return SquareSet(field, coeff, {zero: zero})
    payloads = [e.payload for e in field.elements()]
    add = {x: {y: field._add(x, y) for y in payloads} for x in payloads}
    mul = {x: {y: field._mul(x, y) for y in payloads} for x in payloads}
    times_k = mul[coeff.payload]
    k_squares = [times_k[mul[d][d]] for d in payloads]  # k*d^2 for each d
    zero, index = field.zero().payload, {x: i for i, x in enumerate(payloads)}
    unsigned = [x for x in payloads if index[field._neg(x)] >= index[x]]  # rule (1): -x not earlier
    scalars_in = False  # rule (2): every k*s*I is in, so skip X with a + d = 0
    first: dict[tuple, tuple] = {}  # payload 4-tuple of k*X^2 -> that of the first X
    setdefault = first.setdefault
    for a in unsigned:
        plus_a, plus_ka2 = add[a], add[times_k[mul[a][a]]]
        every_d = [(d, kd2, plus_a[d]) for d, kd2 in zip(payloads, k_squares)]  # (d, k*d^2, a+d)
        trace_nonzero = [row for row in every_d if row[2] != zero]
        for b in (payloads if a != zero else unsigned):
            times_kb, d_rows = mul[times_k[b]], trace_nonzero if scalars_in else every_d
            for c in (payloads if a != zero or b != zero else unsigned):
                times_kc, kbc = mul[times_k[c]], times_kb[c]
                plus_kbc, e11 = add[kbc], plus_ka2[kbc]
                for d, kd2, s in d_rows:
                    setdefault((e11, times_kb[s], times_kc[s], plus_kbc[kd2]), (a, b, c, d))
            if a == zero and b != zero:  # d = 0 gave every k*b*c*I
                scalars_in = True
    return SquareSet(field, coeff, first)


def representable_two_term(
    a1, a2, target: Mat2, field: Field, *, square_set: SquareSet | None = None
) -> tuple[Mat2, Mat2] | None:
    """First (X1, X2) with a1*X1**2 + a2*X2**2 == target, else None.

    Scans X1 in enumeration order and looks the residual's payload key
    up in the square set of a2 (reused across calls when passed in and
    over this field).  A zero term goes first, and then X1 = 0 alone.
    """
    a1, a2 = field(a1), field(a2)
    if a1 and not a2:
        found = representable_two_term(a2, a1, target, field)
        return None if found is None else found[::-1]
    if square_set is None or square_set.field != field or square_set.coeff != a2:
        square_set = build_square_set(field, a2)
    first = square_set._first
    if not a1:  # every X1 leaves the target itself as the residual
        x2 = first.get(tuple(field(e).payload for e in target.entries()))
        return None if x2 is None else (Mat2.zero(field), square_set._matrix(x2))
    for x1 in all_matrices(field):
        x2 = first.get(_payloads(target - x1.square(a1)))
        if x2 is not None:
            return x1, square_set._matrix(x2)
    return None


def check_universal_exhaustive(a1, a2, field: Field) -> tuple[bool, Mat2 | None]:
    """Sweep every target of a field of order <= 16.

    Returns (True, None) when every one of the q**4 targets is a value
    of a1*X1**2 + a2*X2**2, else (False, first unrepresentable target).
    Conjugating a solution gives a solution, so the values are closed
    under similarity, and two 2x2 matrices are similar exactly when they
    are the same scalar or are both non-scalar with equal trace and
    determinant.  So one target per class settles them all: the q
    scalars s*I and the q**2 companions [[0,-d],[1,t]].  Each is looked
    up against the members v of the first term's set, t - v formed with
    the field's ``_sub`` hook, until one lands in the second's.  When a
    class is missed, the targets run over payload 4-tuples in
    ``all_matrices`` order to the first of a missed class.  When
    a2 == a1 the one square set serves both terms; a zero term goes
    first, so that 0 is the only v.
    """
    if not field(a2):
        a1, a2 = a2, a1
    set1 = build_square_set(field, a1)
    second = set1._first if field(a2) == set1.coeff else build_square_set(field, a2)._first
    sub, add, mul = field._sub, field._add, field._mul
    values1 = list(set1._first)  # insertion order; deterministic
    elems, zero, one = list(set1._element), field.zero().payload, field.one().payload

    def hit(target):
        t11, t12, t21, t22 = target
        for v11, v12, v21, v22 in values1:
            if (sub(t11, v11), sub(t12, v12), sub(t21, v21), sub(t22, v22)) in second:
                return True
        return False

    def similarity_class(target):  # (s,) for s*I, else (trace, det)
        t11, t12, t21, t22 = target
        if t12 == t21 == zero and t11 == t22:
            return (t11,)
        return add(t11, t22), sub(mul(t11, t22), mul(t12, t21))

    representatives = [(s, zero, zero, s) for s in elems]
    representatives += [(zero, field._neg(d), one, t) for t in elems for d in elems]
    missed = {similarity_class(r) for r in representatives if not hit(r)}
    if not missed:
        return True, None
    targets = itertools.product(elems, repeat=4)  # payloads in element order
    return False, set1._matrix(next(t for t in targets if similarity_class(t) in missed))


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

    Takes one or two coefficients over a field of order <= 16.
    """
    check_term_count(coeffs)
    a1, a2 = (*coeffs, 0)[:2]
    return check_universal_exhaustive(a1, a2, field)[1]
