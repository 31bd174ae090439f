"""Brute-force representability checks over small finite fields.

Independent of the constructive solver: everything here is plain
enumeration of 2 x 2 matrices.  Enumeration is lexicographic in the
entry order (e11, e12, e21, e22) over each field's canonical element
order, which makes witnesses and first counterexamples deterministic.
Every enumeration runs on one set of payload tables per field (q x q
sums and products, negatives), built on first use from the field's
hooks and kept while the field lives.

A two-term query walks X1 and looks the residual up in the other term's
square set, which holds no members: it solves k*X**2 == S for the
first X in closed form (``_first_root``).  The X1 scan walks X in
enumeration order, less each X whose square an earlier X gave
(``_scan``): a skipped X1 leaves the residual of an earlier X1 that
missed, so the first hit is never skipped.  Each X1 it walks becomes a
``Mat2`` and forms a1 * X1**2 as ``X1.square(a1)``.

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
tried: one closed-form lookup, with nothing enumerated.
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
    """All q**4 matrices, lexicographic by (e11, e12, e21, e22).

    No enumeration here walks it: it is the reference order that the
    tests hold the payload walks to.
    """
    elems = list(field.elements())
    for entries in itertools.product(elems, repeat=4):
        yield Mat2(*entries)


_Tables = namedtuple("_Tables", "payloads add mul neg unsigned trace_nonzero roots inv index")
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # field -> its _Tables


def _tables(field: Field) -> _Tables:
    """The field's payload tables, built on first use and kept per field.

    ``payloads`` in element order and ``index[x]``, x's place in it; the
    q x q ``add[x][y]`` and ``mul[x][y]`` (each calls the field's hook
    once per payload pair, so no payload order is assumed), ``neg[x]``
    and, read off these, ``inv[x]`` for x != 0, ``roots[x]``: the y with
    y*y = x in element order, and ``_scan``'s rule (1) ``unsigned`` (the
    x whose negative is not earlier) and rule (2) ``trace_nonzero[a]``
    (the d with a + d != 0).  They hold payloads only, so they keep no
    field alive.  Every enumeration takes its tables here, so this is
    where the oracle checks its field.
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
    zero, one = field.zero().payload, field.one().payload
    trace_nonzero = {a: [d for d in payloads if add[a][d] != zero] for a in payloads}
    roots = {x: [] for x in payloads}
    for y in payloads:
        roots[mul[y][y]].append(y)
    inv = {x: y for x in payloads for y in payloads if mul[x][y] == one}
    tables = _TABLES[field] = _Tables(payloads, add, mul, neg, unsigned, trace_nonzero, roots, inv, index)
    return tables


def _first_root(tables: _Tables, k, zero):
    """The function from the payload 4-tuple of S to that of the first X
    in ``all_matrices`` order with k*X**2 == S, or to None, in closed form.

    0 is the first root of 0, and with a = 0 and b = 0 no X squares to a
    nonzero scalar, so S = k*s*I, s != 0, has first root
    [[0, e1], [s/e1, 0]] (e1 the second element; b = e1 forces d = 0).
    A non-scalar X**2 = t*X - n*I (trace t, determinant n) needs t != 0,
    so X = (S + D*I)/u with D = k*n and u = k*t, where D**2 = det S and
    u**2 = k*(tr S + 2D).  That leaves at most one root in characteristic
    2, where squaring is one to one, and four in odd characteristic; the
    first by element indices is taken.
    """
    zeros = (zero,) * 4
    if k == zero:
        return lambda *s: zeros if s == zeros else None
    add, mul, neg, roots, inv, index = tables.add, tables.mul, tables.neg, tables.roots, tables.inv, tables.index
    e1 = tables.payloads[1]
    times_k, over_ke1 = mul[k], mul[inv[mul[k][e1]]]

    def first_x(s11, s12, s21, s22):
        dets = roots[add[mul[s11][s22]][neg[mul[s12][s21]]]]  # the D; most misses have none
        if not dets:
            return None
        if s12 == zero == s21 and s11 == s22:
            return (zero, e1, over_ke1[s11], zero) if s11 != zero else zeros
        plus_trace, found = add[add[s11][s22]], []
        for d in dets:
            u2 = times_k[plus_trace[add[d][d]]]
            if u2 != zero:
                for u in roots[u2]:
                    over_u = mul[inv[u]]
                    found.append((over_u[add[s11][d]], over_u[s12], over_u[s21], over_u[add[s22][d]]))
        if len(found) > 1:
            return min(found, key=lambda x: (index[x[0]], index[x[1]], index[x[2]], index[x[3]]))
        return found[0] if found else None

    return first_x


class SquareSet:
    """The image set {coeff * X**2} over all 2x2 matrices of a finite field.

    It holds no members: ``_first_x`` maps the payload 4-tuple of S to
    that of S's first root X (``_first_root``), ``_matrix`` rebuilds a
    matrix from the field's canonical elements, and a ``Mat2`` over the
    set's own field is in when it has a root.  ``members`` walks
    ``_scan`` on access, each member in the order of its first X.
    """

    __slots__ = ("field", "coeff", "_first_x", "_element")

    def __init__(self, field: Field, coeff):
        tables = _tables(field)
        self.field, self.coeff = field, field(coeff)
        self._first_x = _first_root(tables, self.coeff.payload, field.zero().payload)
        self._element = {e.payload: e for e in field.elements()}

    def _matrix(self, payloads) -> Mat2:
        return Mat2(*map(self._element.__getitem__, payloads))

    @property
    def members(self):
        squares = _scaled_squares(_tables(self.field), self.coeff.payload, self.field.zero().payload)
        return dict.fromkeys(squares).keys()

    def __contains__(self, matrix) -> bool:
        return (isinstance(matrix, Mat2) and matrix.field == self.field
                and self._first_x(*_payloads(matrix)) is not None)


def build_square_set(field: Field, coeff) -> SquareSet:
    """The square set {coeff * X**2} of a field of order <= 16: no
    member is enumerated, each lookup solves for its first root."""
    return SquareSet(field, coeff)


def _scan(tables: _Tables, zero):
    """X as payload 4-tuples in ``all_matrices`` order, less the X whose
    square an earlier X gave.

    Two rules skip them.  (1) An (a, b, c) prefix is skipped when its
    first nonzero entry e has -e earlier in element order: -X has the
    same square and comes first.  (2) Once the first row with a = 0 and
    b != 0 has put in every scalar b*c*I (at d = 0), each X with
    a + d = 0 is skipped: by Cayley-Hamilton its square is -det(X) * I.
    Each skipped X has the square of an earlier X that is kept, so the
    walk forms every square of the full enumeration, each first at the
    same X.  In characteristic 2, -X = X and no rule could skip more:
    each X of nonzero trace has a square of its own (``_first_root``).
    """
    payloads, unsigned, trace_nonzero = tables.payloads, tables.unsigned, tables.trace_nonzero
    scalars_in = False  # rule (2): every scalar square is in, so skip X with a + d = 0
    for a in unsigned:  # rule (1): -a not earlier
        for b in (payloads if a != zero else unsigned):
            every_d = trace_nonzero[a] if scalars_in else payloads
            for c in (payloads if a != zero or b != zero else unsigned):
                for d in every_d:
                    yield a, b, c, d
            if a == zero and b != zero:  # d = 0 gave every b*c*I
                scalars_in = True


def _square_classes(tables: _Tables, k, zero) -> set:
    """The similarity classes that k*X**2 hits, read off Cayley-Hamilton.

    X**2 = t*X - d*I for X of trace t and determinant d.  For k != 0,
    the trace-0 X give every scalar -k*d*I, and the X with t != 0 give
    the non-scalar classes (k*(t^2 - 2d), k^2*d^2); a scalar X gives a
    scalar.  For k = 0 only the zero class is hit.  Classes are keyed
    (s,) for s*I, else (trace, det).
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


def _scaled_squares(tables: _Tables, k, zero):
    """k*X**2 as a payload 4-tuple for each X that ``_scan`` walks."""
    add, mul = tables.add, tables.mul
    times_k = mul[k]
    for a, b, c, d in _scan(tables, zero):
        bc, s = mul[b][c], add[a][d]
        yield times_k[add[mul[a][a]][bc]], times_k[mul[b][s]], times_k[mul[c][s]], times_k[add[mul[d][d]][bc]]


def representable_two_term(
    a1, a2, target: Mat2, field: Field, *, square_set: SquareSet | None = None
) -> tuple[Mat2, Mat2] | None:
    """First (X1, X2) with a1*X1**2 + a2*X2**2 == target, else None.

    Walks X1 in enumeration order, less the X1 whose square an earlier
    X1 gave (``_scan``), and looks the residual's first root up in the
    square set of a2 (reused across calls when passed in and over this
    field).  A zero term goes first.  X1 = 0 leaves the target itself,
    and with a1 = 0 so does every X1, so then X1 = 0 alone is tried.
    """
    a1, a2 = field(a1), field(a2)
    if a1 and not a2:
        found = representable_two_term(a2, a1, target, field)
        return None if found is None else found[::-1]
    if square_set is None or square_set.field != field or square_set.coeff != a2:
        square_set = build_square_set(field, a2)
    first_x, matrix = square_set._first_x, square_set._matrix
    x2 = first_x(*(field(e).payload for e in target.entries()))
    if x2 is not None:
        return Mat2.zero(field), matrix(x2)
    if not a1:
        return None
    for x in itertools.islice(_scan(_tables(field), field.zero().payload), 1, None):  # after X1 = 0
        x1 = matrix(x)
        r = target - x1.square(a1)
        x2 = first_x(r.e11.payload, r.e12.payload, r.e21.payload, r.e22.payload)
        if x2 is not None:
            return x1, matrix(x2)
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
    when some X2, walked by ``_scan`` on the field's tables, puts
    R - a2*X2**2 in one of them.  A zero term goes first;
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
        squares, rest = [], _scaled_squares(tables, neg[k2], zero)

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
