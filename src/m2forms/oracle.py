"""Brute-force representability checks over small finite fields.

Independent of the constructive solver: everything here is plain
enumeration of 2 x 2 matrices.  Enumeration is lexicographic in the
entry order (e11, e12, e21, e22) over each field's canonical element
order, which makes witnesses and first counterexamples deterministic.
Every enumeration runs on one set of payload tables per field (q x q
sums and products, negatives), built on first use from the field's
hooks and kept while the field lives.

A two-term query precomputes one term's square set and looks up the
residual.  A square set enumerates the entries' payloads in order,
squares them by table lookups and keys its members by payload
4-tuples.  It skips each X whose square an earlier X already gave: X
after -X, and, once every scalar is in, each X of trace 0, whose square
is the scalar -det(X) * I.  The X1 scan of a query stays on ``Mat2`` and
forms a1 * X1**2 as ``X1.square(a1)``.

A sweep builds no square set.  It tests one target per similarity class
(conjugating a solution gives a solution), reads the classes one term
hits off Cayley-Hamilton, walks the other term's X only until the
residual lands in one of them, and walks the targets' payload 4-tuples
only to find the first of a missed class.  Only results (a first
counterexample, a witness) become ``Mat2``.

``first_solution`` and ``first_unrepresentable`` answer every one- and
two-term query (CLI, single-term explanation) over fields of order at
most ``MAX_ORDER``, the one bound of every enumeration, checked where
the tables are made.  A one-term form a is the two-term form a, 0.  A
zero term is the zero matrix, so it goes first and X1 = 0 alone is
tried: one lookup.
"""

from __future__ import annotations

import itertools
import weakref
from collections import namedtuple

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


_Tables = namedtuple("_Tables", "payloads add mul neg unsigned")
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # field -> its _Tables


def _tables(field: Field) -> _Tables:
    """The field's payload tables, built on first use and kept per field.

    ``payloads`` in element order, the q x q ``add[x][y]`` and
    ``mul[x][y]`` (each calls the field's hook once per payload pair, so
    no payload order is assumed), ``neg[x]``, and rule (1)'s
    ``unsigned``: the payloads whose negative is not earlier.  They hold
    payloads only, so they keep no field alive (a ``SquareSet`` keeps its
    own payload -> element map for that reason).  Every enumeration
    takes its tables here, so this is where the oracle checks its field.
    """
    tables = _TABLES.get(field)
    if tables is not None:
        return tables
    if not field.finite:
        raise InfiniteFieldError(f"cannot enumerate matrices over {field}")
    if field.order > MAX_ORDER:
        raise FieldTooLargeError(f"{field} has order {field.order}, above the bound {MAX_ORDER}")
    payloads = [e.payload for e in field.elements()]
    add = {x: {y: field._add(x, y) for y in payloads} for x in payloads}
    mul = {x: {y: field._mul(x, y) for y in payloads} for x in payloads}
    neg = {x: field._neg(x) for x in payloads}
    index = {x: i for i, x in enumerate(payloads)}
    unsigned = [x for x in payloads if index[neg[x]] >= index[x]]
    tables = _TABLES[field] = _Tables(payloads, add, mul, neg, unsigned)
    return tables


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
    is read from the field's q x q tables (``_tables``).  The rows fixed
    by a, b and c are taken out of the inner loops, so the loop over d
    only looks entries up.  A new square's payload 4-tuple stores its
    first X's; no ``Mat2`` is made.

    Two rules skip an X whose square an earlier X gave, which
    ``setdefault`` would ignore, so the members and their order are
    those of the full enumeration.  (1) An (a, b, c) prefix is skipped
    when its first nonzero entry e has -e earlier in element order:
    -X has the same square and comes first.  (2) Once the first row with
    a = 0 and b != 0 has put in every scalar k*b*c*I (at d = 0), each X
    with a + d = 0 is skipped: by Cayley-Hamilton its square is
    -det(X) * I.  In characteristic 2, -X = X, so rule (1) skips
    nothing, and no rule could skip more: there e22 - e11 = k*(a+d)**2,
    so on trace a + d != 0 the trace is fixed by the square, then b and
    c by e12 and e21, and then a by e11.  Every X of nonzero trace gives
    a square of its own, and the set has q**4 - q**3 + q members.
    """
    tables = _tables(field)
    coeff = field(coeff)
    zero = field.zero().payload
    if not coeff:  # 0 * X**2 == 0, first reached at the zero matrix
        return SquareSet(field, coeff, {(zero,) * 4: (zero,) * 4})
    payloads, add, mul, unsigned = tables.payloads, tables.add, tables.mul, tables.unsigned
    times_k = mul[coeff.payload]
    k_squares = [times_k[mul[d][d]] for d in payloads]  # k*d^2 for each d
    scalars_in = False  # rule (2): every k*s*I is in, so skip X with a + d = 0
    first: dict[tuple, tuple] = {}  # payload 4-tuple of k*X^2 -> that of the first X
    setdefault = first.setdefault
    for a in unsigned:  # rule (1): -a not earlier
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


def _square_classes(tables: _Tables, k, zero) -> set:
    """The similarity classes that k*X**2 hits, read off Cayley-Hamilton.

    X**2 = t*X - d*I for X of trace t and determinant d.  For k != 0,
    the trace-0 X give every scalar -k*d*I, and the X with t != 0 give
    the non-scalar classes (k*(t^2 - 2d), k^2*d^2); a scalar X gives a
    scalar.  For k = 0 only the zero class is hit.  Classes are keyed
    as in the sweep: (s,) for s*I, else (trace, det).
    """
    if k == zero:
        return {(zero,)}
    add, mul, neg = tables.add, tables.mul, tables.neg
    times_k = mul[k]
    classes = {(s,) for s in tables.payloads}
    for t in tables.payloads:
        if t != zero:
            plus_t2 = add[mul[t][t]]
            for d in tables.payloads:
                kd = times_k[d]
                classes.add((times_k[plus_t2[neg[add[d][d]]]], mul[kd][kd]))
    return classes


def _scaled_squares(tables: _Tables, k):
    """k*X**2 as a payload 4-tuple for each X, in ``all_matrices`` order."""
    add, mul = tables.add, tables.mul
    times_k = mul[k]
    for a, b, c, d in itertools.product(tables.payloads, repeat=4):
        bc, s = mul[b][c], add[a][d]
        yield times_k[add[mul[a][a]][bc]], times_k[mul[b][s]], times_k[mul[c][s]], times_k[add[mul[d][d]][bc]]


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
    scalars s*I and the q**2 companions [[0,-d],[1,t]].

    No square set is built: the classes that a1*X1**2 hits are read off
    Cayley-Hamilton (``_square_classes``), and a representative R is hit
    when some X2, walked in ``all_matrices`` order on the field's
    tables, puts R - a2*X2**2 in one of them.  A zero term goes first;
    then every X1 gives 0, so the hit classes are a2's, with no walk.
    When a class is missed, the targets run over payload 4-tuples in
    ``all_matrices`` order to the first of a missed class.
    """
    if not field(a2):
        a1, a2 = a2, a1
    tables = _tables(field)
    payloads, add, mul, neg = tables.payloads, tables.add, tables.mul, tables.neg
    zero, one = field.zero().payload, field.one().payload
    k1, k2 = field(a1).payload, field(a2).payload

    def similarity_class(m11, m12, m21, m22):  # (s,) for s*I, else (trace, det)
        if m12 == m21 == zero and m11 == m22:
            return (m11,)
        return add[m11][m22], add[mul[m11][m22]][neg[mul[m12][m21]]]

    representatives = {(s,): (s, zero, zero, s) for s in payloads}
    representatives.update({(t, d): (zero, neg[d], one, t) for t in payloads for d in payloads})
    if k1 == zero:  # every X1 leaves the representative itself
        hit = _square_classes(tables, k2, zero)
        missed = representatives.keys() - hit
    else:
        hit = _square_classes(tables, k1, zero)
        squares, rest = [], _scaled_squares(tables, neg[k2])

        def walk():  # -a2*X2**2 in X2 order, each formed once across representatives
            yield from squares
            for v in rest:
                squares.append(v)
                yield v

        def reached(r11, r12, r21, r22):
            plus_r11, plus_r12, plus_r21, plus_r22 = add[r11], add[r12], add[r21], add[r22]
            return any(
                similarity_class(plus_r11[v11], plus_r12[v12], plus_r21[v21], plus_r22[v22]) in hit
                for v11, v12, v21, v22 in walk()
            )

        missed = {c for c, r in representatives.items() if c not in hit and not reached(*r)}
    if not missed:
        return True, None
    targets = itertools.product(payloads, repeat=4)  # payloads in element order
    first = next(t for t in targets if similarity_class(*t) in missed)
    return False, Mat2(*(FieldElement(field, p) for p in first))


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
