"""Universality decisions for diagonal quadratic forms over 2x2 matrices.

Over a perfect field the question is settled by counting nonzero
coefficients: two or more means every 2x2 matrix is representable, and
one or zero means the nilpotent [[0,1],[0,0]] already is not.  Over the
non-perfect GF(2)(x) the counting criterion genuinely fails, so verdicts
there are Undecided rather than overclaimed; a target-specific necessary
condition (the trace sum must be a square) can still prove individual
targets unreachable, and furnishes the stock counterexample.

Universality over the 2x2 integer matrices (Lee's criterion) needs no
field and lives in integer_forms.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FieldMismatchError
from .fields import FieldElement, RationalFunctionField2
from .matrices import DiagonalForm, Mat2

UNIVERSAL = "universal"
NOT_UNIVERSAL = "not-universal"
UNDECIDED = "undecided"


class UniversalityVerdict(namedtuple("UniversalityVerdict", "status witness reason")):
    """Outcome of a universality decision.

    ``status`` is one of the module constants UNIVERSAL, NOT_UNIVERSAL,
    UNDECIDED.  A NOT_UNIVERSAL verdict always carries a witness matrix
    the form cannot represent.  UNDECIDED only occurs over non-perfect
    fields, where the counting criterion does not apply.
    """

    __slots__ = ()

    def __new__(cls, status: str, witness: Mat2 | None, reason: str):
        if status == NOT_UNIVERSAL and witness is None:
            raise ValueError("a not-universal verdict needs a witness")
        return super().__new__(cls, status, witness, reason)


nilpotent_witness = Mat2.nilpotent


def decide_universality(form: DiagonalForm) -> UniversalityVerdict:
    """Decide whether ``form`` represents every 2x2 matrix over its field.

    The perfect-field test matters only in characteristic 2, since the
    odd-characteristic construction takes no square roots.
    """
    nonzero = form.nonzero_indices()
    if len(nonzero) < 2:
        return UniversalityVerdict(
            NOT_UNIVERSAL,
            nilpotent_witness(form.field),
            "fewer-than-two-nonzero-coefficients",
        )
    if form.field.perfect:
        return UniversalityVerdict(UNIVERSAL, None, "two-nonzero-coefficients")
    return UniversalityVerdict(UNDECIDED, None, "non-perfect-field")


class SingleTermExplanation(
    namedtuple("SingleTermExplanation", "equations conclusion oracle_confirmed")
):
    """Why a one-term form misses the nilpotent witness.

    ``equations`` lists the entry equations of a*X**2 == [[0,1],[0,0]]
    and ``conclusion`` walks them to a contradiction.  For fields small
    enough to enumerate, ``oracle_confirmed`` records an independent
    exhaustive check; it is None when no such check ran.
    """

    __slots__ = ()


def single_term_witness(a: FieldElement) -> tuple[Mat2, SingleTermExplanation]:
    """A matrix the form a*X**2 cannot represent, with the reasoning."""
    from . import oracle

    field = a.field
    witness = nilpotent_witness(field)
    confirmed = None
    if field.finite and field.order <= oracle.SWEEP_MAX_ORDER:
        confirmed = oracle.first_solution([a], witness, field) is None
    if a.is_zero():
        equations = ("0*X^2 = 0 for every X",)
        conclusion = "the zero form represents only the zero matrix"
    else:
        equations = (
            f"({a})*(x^2+y*z) = 0",
            f"({a})*y*(x+w) = 1",
            f"({a})*z*(x+w) = 0",
            f"({a})*(y*z+w^2) = 0",
        )
        conclusion = (
            "the second equation forces y*(x+w) invertible, so x+w != 0; "
            "then the third gives z = 0, the first and fourth give x = 0 and "
            "w = 0, and the second reads 0 = 1"
        )
    return witness, SingleTermExplanation(equations, conclusion, confirmed)


def f2x_necessary_condition(target: Mat2) -> bool:
    """Whether X1**2 + X2**2 == target over GF(2)(x) passes the trace test.

    Any solution forces (x1 + x2 + w1 + w2)**2 to equal the sum of the
    diagonal entries, so False proves the target unrepresentable by the
    all-ones two-term form.  True proves nothing.
    """
    if target.field != RationalFunctionField2():
        raise FieldMismatchError("this check applies over GF(2)(x) only")
    return target.trace().is_square()


def f2x_counterexample() -> tuple[DiagonalForm, Mat2]:
    """A form and target showing the counting criterion needs perfectness.

    Returns X1**2 + X2**2 over GF(2)(x) together with [[x,0],[0,0]],
    whose diagonal sum x is not a square there; the form is universal
    over every perfect field yet cannot reach this target.
    """
    field = RationalFunctionField2()
    form = DiagonalForm(field, [1, 1])
    x = field.parse("x")
    z = field.zero()
    target = Mat2(x, z, z, z)
    return form, target
