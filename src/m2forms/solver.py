"""Constructive decomposition of a target matrix under a diagonal form.

Given coefficients with at least two nonzero entries and a target A, the
solver produces matrices X1, ..., Xm with sum(ai * Xi**2) == A, exactly.
Only the two lowest-index nonzero coefficients do any work; every other
slot gets the zero matrix.

Two constructions share one back-substitution: once x1 and w1 make
x1 + w1 invertible, the off-diagonal entries of X1 follow by division
and the last entry balances the trace.  Away from characteristic 2 the
diagonal gap p - s is split so that x1 + w1 is 1 (or 2 when p == s).
In characteristic 2 square roots such as sqrt((p + s)/a1) pick x1, with
separate branches for scalar targets (where [[0,1],[c,0]]**2 = c*I covers
a missing root) and for targets that differ from scalar only off the
diagonal.  Over a non-perfect field another required root may not exist,
and the solver raises NotASquareError naming the element that has none.

Both constructions run on payloads.  The odd one takes the field's
``_payload_ops``: a finite field's own hooks, whose payloads are
canonical already, or Q's fraction pairs that are never put in lowest
terms, so that each answer entry is reduced once, when it is made.  The
characteristic-2 one takes the field's own hooks, which keep F2(X) in
lowest terms at every step.

Every answer is a Decomposition, which checks itself when it is built
through DiagonalForm.evaluates_to: by evaluating the form over the
finite fields, and over Q and F2(X) by cross-multiplying, with no value
in lowest terms built unless the check fails and the error names it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    CharacteristicError,
    FieldMismatchError,
    NotASquareError,
    NotUniversalFormError,
    ZeroCoefficientError,
)
from .fields import FieldElement, _same
from .matrices import DiagonalForm, Mat2, _payloads


class Decomposition(namedtuple("Decomposition", "form target matrices")):
    """A verified solution: the form at ``matrices`` is ``target``, checked when built."""

    __slots__ = ()

    def __new__(cls, form: DiagonalForm, target: Mat2, matrices: tuple[Mat2, ...]):
        if not form.evaluates_to(matrices, target):
            value = form.evaluate(matrices)
            raise ValueError(f"matrices evaluate to {value}, not the target {target}")
        return super().__new__(cls, form, target, matrices)


def _check_pair(a1: FieldElement, a2: FieldElement, target: Mat2):
    field = target.field
    if a1.field != field or a2.field != field:
        raise FieldMismatchError("coefficients and target must share one field")
    if a1.is_zero() or a2.is_zero():
        raise ZeroCoefficientError("both coefficients must be nonzero")
    return field


def _matrices(field, pair) -> tuple[Mat2, Mat2]:
    """The answer's two matrices, from two quadruples of canonical payloads."""
    return tuple(Mat2(*[FieldElement(field, e) for e in X]) for X in pair)


def _back_substitute(field, ops, a1, a2, target, x1, w1, t):
    """X1 = [[x1,y1],[z1,w1]] and X2 = [[0,y2],[1,0]] for given x1 and w1.

    Runs on payloads with ``ops``, the caller's (add, sub, mul, div,
    canonical), and makes each entry canonical once, as it is made, so
    that y2 is built from entries already in lowest terms.  X2**2 = y2*I,
    so q and r divide out over a1*(x1+w1), and y2 balances s; p holds
    once a1*(x1**2-w1**2) = p-s.  Each caller knows x1 + w1 by
    construction and passes t = 1/(a1*(x1+w1)) instead of a sum, product
    and inverse:

      odd, p == s     x1 = w1 = 1, so t = 1/(2*a1);
      odd, p != s     x1 + w1 = ((gap+a1) + (a1-gap))/(2*a1) = 1, so t = 1/a1;
      char 2, p != s  w1 = 0 and x1 = sqrt((p+s)/a1) is nonzero, so t = 1/(a1*x1).
    """
    add, sub, mul, div, canonical = ops
    _, q, r, s = target
    x1, w1 = canonical(x1), canonical(w1)
    y1, z1 = canonical(mul(q, t)), canonical(mul(r, t))
    y2 = canonical(div(sub(s, mul(a1, add(mul(y1, z1), mul(w1, w1)))), a2))
    zero = field._from_int(0)
    return (x1, y1, z1, w1), (zero, y2, field._from_int(1), zero)


def _odd_char(field, ops, a1, a2, target):
    """decompose_pair_odd_char on payloads, with the field's ``_payload_ops``."""
    add, sub, mul, div, _ = ops
    p, _, _, s = target
    one = field._from_int(1)
    half = div(one, add(a1, a1))
    if p == s:
        return _back_substitute(field, ops, a1, a2, target, one, one, half)
    gap = sub(p, s)
    x1, w1 = mul(add(gap, a1), half), mul(sub(a1, gap), half)
    return _back_substitute(field, ops, a1, a2, target, x1, w1, div(one, a1))


def _char2(field, a1, a2, target):
    """decompose_pair_char2 on payloads, with the field's own hooks.

    Each step is canonical already, F2(X)'s included: its gf2x kernels
    cost grows with degree, and unreduced pairs made this construction
    slower there, not faster.
    """
    add, mul, div, sqrt, is_zero = field._add, field._mul, field._div, field._sqrt, field._is_zero
    p, q, r, s = target
    zero, one = field._from_int(0), field._from_int(1)
    if p != s:
        x1 = sqrt(div(add(p, s), a1))
        ops = (add, field._sub, mul, div, _same)
        return _back_substitute(field, ops, a1, a2, target, x1, zero, div(one, mul(a1, x1)))
    zeros = (zero,) * 4
    if is_zero(q) and is_zero(r):
        c = div(p, a1)
        try:
            root = sqrt(c)
        except NotASquareError:
            return (zero, one, c, zero), zeros
        return (root, zero, zero, root), zeros
    if not is_zero(q):
        x1 = sqrt(div(a2, a1))
        balance, q_inv = add(p, a2), div(one, q)
        y1 = div(q, mul(a1, x1))
        z1 = mul(mul(balance, x1), q_inv)
        z2 = add(div(r, a2), mul(balance, q_inv))
        return (x1, y1, z1, zero), (zero, zero, z2, one)
    # p == s, q == 0, r != 0: mirror the q != 0 branch through the transpose
    pair = _char2(field, a1, a2, (p, r, q, s))
    return tuple((e11, e21, e12, e22) for e11, e12, e21, e22 in pair)


def decompose_pair_odd_char(
    a1: FieldElement, a2: FieldElement, target: Mat2
) -> tuple[Mat2, Mat2]:
    """Solve a1*X1**2 + a2*X2**2 == target away from characteristic 2.

    Fixes x2 = w2 = 0 and z2 = 1.  When the diagonal entries agree,
    x1 = w1 = 1; otherwise x1 and w1 are chosen so x1 - w1 carries the
    diagonal gap while x1 + w1 = 1.  Either way x1 + w1 is invertible,
    the off-diagonal entries divide out, and y2 balances the last entry.
    """
    field = _check_pair(a1, a2, target)
    if field.characteristic == 2:
        raise CharacteristicError("this construction requires characteristic != 2")
    pair = _odd_char(field, field._payload_ops(), a1.payload, a2.payload, _payloads(target))
    return _matrices(field, pair)


def decompose_pair_char2(
    a1: FieldElement, a2: FieldElement, target: Mat2
) -> tuple[Mat2, Mat2]:
    """Solve a1*X1**2 + a2*X2**2 == target in characteristic 2.

    Branches on the target's shape:

      p != s          x1 = sqrt((p+s)/a1) is nonzero and w1 = 0; the
                      odd construction's back-substitution finishes.
      scalar target   X1 = sqrt(p/a1) * I and X2 = 0; with no root,
                      X1 = [[0,1],[p/a1,0]], whose square is (p/a1)*I.
      p == s, q != 0  x1 = sqrt(a2/a1) and w2 = 1, so the two x+w sums
                      are x1 and 1; z1 and z2 absorb p and r.
      p == s, r != 0  the previous branch on the transpose, transposed.

    Total over perfect fields.  Elsewhere the square roots may not
    exist, and NotASquareError carries the element with no root, in
    lowest terms.
    """
    field = _check_pair(a1, a2, target)
    if field.characteristic != 2:
        raise CharacteristicError("this construction requires characteristic 2")
    return _matrices(field, _char2(field, a1.payload, a2.payload, _payloads(target)))


def decompose(form: DiagonalForm, target: Mat2) -> Decomposition:
    """Represent ``target`` under ``form``, or explain why that fails.

    Uses the two lowest-index nonzero coefficients and fills the other
    slots with zero matrices.  Forms with fewer than two nonzero
    coefficients are refused outright with NotUniversalFormError whose
    witness [[0,1],[0,0]] is a matrix no single-term form represents.
    """
    field = form.field
    if target.field != field:
        raise FieldMismatchError(
            f"target over {target.field} but form over {field}"
        )
    nonzero = form.nonzero_indices()
    if len(nonzero) < 2:
        raise NotUniversalFormError(
            "forms with fewer than two nonzero coefficients are never universal",
            witness=Mat2.nilpotent(field),
        )
    i, j = nonzero[0], nonzero[1]
    a1, a2 = form.coeffs[i], form.coeffs[j]
    if field.characteristic == 2:
        x_i, x_j = decompose_pair_char2(a1, a2, target)
    else:
        x_i, x_j = decompose_pair_odd_char(a1, a2, target)
    matrices = [Mat2.zero(field)] * len(form)
    matrices[i] = x_i
    matrices[j] = x_j
    return Decomposition(form, target, tuple(matrices))
