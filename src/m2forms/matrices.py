"""2x2 matrices over a field, and diagonal quadratic forms in matrix variables.

Matrices are immutable and hashable, with entries e11, e12, e21, e22 all
from one field; combining matrices over two fields raises the element
layer's FieldMismatchError.  A DiagonalForm holds an ordered coefficient
vector (a1, ..., am) and evaluates sum(ai * Xi**2) at a tuple of matrices;
``evaluates_to`` tests that value against a target, over Q and F2(X) by
cross-multiplying unreduced fractions instead of building the value.
``Mat2.parse`` splits ``[[a,b],[c,d]]`` with ``fields._scan_marks``, which
names an unbalanced parenthesis at its position in the matrix text, and
hands each entry's span of that text to the field's reader.
"""

from __future__ import annotations

import re

from .errors import ArityMismatchError, FieldMismatchError, ParseError
from .fields import Field, FieldElement, _Fractions, _scan_marks, _trim


class Mat2:
    """An immutable 2x2 matrix with entries from a single field."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        if not isinstance(e11, FieldElement):
            raise TypeError("entries must be field elements; use Mat2.of to coerce")
        field = e11.field
        for entry in (e12, e21, e22):
            if not isinstance(entry, FieldElement) or entry.field != field:
                raise FieldMismatchError("all entries must come from one field")
        self.e11 = e11
        self.e12 = e12
        self.e21 = e21
        self.e22 = e22

    @classmethod
    def of(cls, field: Field, rows) -> Mat2:
        """Build a matrix from any 2x2 nest of values the field accepts."""
        (a, b), (c, d) = rows
        return cls(field(a), field(b), field(c), field(d))

    @classmethod
    def zero(cls, field: Field) -> Mat2:
        z = field.zero()
        return cls(z, z, z, z)

    @classmethod
    def identity(cls, field: Field) -> Mat2:
        z, o = field.zero(), field.one()
        return cls(o, z, z, o)

    @classmethod
    def nilpotent(cls, field: Field) -> Mat2:
        """The matrix [[0,1],[0,0]]: unrepresentable by any single-term form."""
        z, o = field.zero(), field.one()
        return cls(z, o, z, z)

    @property
    def field(self) -> Field:
        return self.e11.field

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e11 - other.e11,
            self.e12 - other.e12,
            self.e21 - other.e21,
            self.e22 - other.e22,
        )

    def __neg__(self):
        return Mat2(-self.e11, -self.e12, -self.e21, -self.e22)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.e11 * other.e11 + self.e12 * other.e21,
                self.e11 * other.e12 + self.e12 * other.e22,
                self.e21 * other.e11 + self.e22 * other.e21,
                self.e21 * other.e12 + self.e22 * other.e22,
            )
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> Mat2:
        c = self.field(c)
        if c == 1:
            return self
        return Mat2(c * self.e11, c * self.e12, c * self.e21, c * self.e22)

    def square(self, coeff=None) -> Mat2:
        """X**2, or coeff * X**2, by Cayley-Hamilton: X**2 = t*X - d*I.

        t = tr X and d = det X, so X**2 costs 6 multiplies, not the 8 of
        X * X.  With a coefficient, t and d are scaled first and
        coeff * X**2 = (coeff*t)*X - (coeff*d)*I costs 8, not 12.
        """
        e11, e12, e21, e22 = self.e11, self.e12, self.e21, self.e22
        t, d = e11 + e22, e11 * e22 - e12 * e21
        if coeff is not None:
            t, d = coeff * t, coeff * d
        return Mat2(t * e11 - d, t * e12, t * e21, t * e22 - d)

    def trace(self) -> FieldElement:
        return self.e11 + self.e22

    def det(self) -> FieldElement:
        return self.e11 * self.e22 - self.e12 * self.e21

    def transpose(self) -> Mat2:
        return Mat2(self.e11, self.e21, self.e12, self.e22)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries())

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):  # the entries share one field, so their payloads suffice
        return hash((self.e11.payload, self.e12.payload, self.e21.payload, self.e22.payload))

    def __str__(self):
        return f"[[{self.e11},{self.e12}],[{self.e21},{self.e22}]]"

    def __repr__(self):
        return f"Mat2({self.e11!r}, {self.e12!r}, {self.e21!r}, {self.e22!r})"

    @classmethod
    def parse(cls, field: Field, text: str) -> Mat2:
        """Parse ``[[e,e],[e,e]]`` with entries in the field's grammar.

        Whitespace may stand between tokens, and error positions index
        ``text`` as given.
        """
        text = str(text)
        spans = _split_matrix(text)
        return cls(*(FieldElement(field, field._parse_payload(text, *span)) for span in spans))


def _payloads(matrix: Mat2) -> tuple:
    """The payloads of (e11, e12, e21, e22)."""
    return (matrix.e11.payload, matrix.e12.payload, matrix.e21.payload, matrix.e22.payload)


# each bracket separator, with the whitespace before, inside and after it
_SEPARATORS = {s: re.compile(r"\s*".join(["", *map(re.escape, s), ""])) for s in ("[[", ",[", "]")}


def _split_matrix(s: str):
    """Trimmed spans of the entries of ``[[a,b],[c,d]]``, cut at the ','
    and ']' outside parentheses."""
    start, end = _trim(s, 0, len(s))
    opened = _SEPARATORS["[["].match(s, start)
    if not opened:
        raise ParseError("expected '[['", s, start)
    i = opened.end()
    marks = _scan_marks(s, i, end)
    spans = []
    for stop, then in ((",", ""), ("]", ",["), (",", ""), ("]", "]")):
        for j, ch in marks:
            if ch in "[],":
                break
        else:
            j, ch = end, ""
        if ch != stop:
            raise ParseError(f"unexpected {ch!r} in entry" if ch else f"expected {stop!r}", s, j)
        span = _trim(s, i, j)
        if span[0] == j:
            raise ParseError("empty matrix entry", s, j)
        spans.append(span)
        i = j + 1
        if then:
            after = _SEPARATORS[then].match(s, i)
            if not after:
                raise ParseError(f"expected {then!r}", s, _trim(s, i, end)[0])
            for _ in then:  # its characters are marks too
                next(marks)
            i = after.end()
    if i != len(s):
        raise ParseError("trailing characters after matrix", s, i)
    return spans


class DiagonalForm:
    """The diagonal quadratic form sum(ai * Xi**2) over a fixed field.

    Coefficients may be zero; which ones are nonzero is what decides
    universality over the 2x2 matrices.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(field(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a form needs at least one coefficient")
        self.field = field
        self.coeffs = coeffs

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, DiagonalForm):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"DiagonalForm({self.field!r}, [{self}])"

    def nonzero_indices(self):
        return tuple(i for i, c in enumerate(self.coeffs) if not c.is_zero())

    def evaluate(self, matrices) -> Mat2:
        """The exact value sum(ai * matrices[i]**2).

        Each term ai * Xi**2 comes from Mat2.square(ai), by Cayley-Hamilton.
        """
        matrices = tuple(matrices)
        if len(matrices) != len(self.coeffs):
            raise ArityMismatchError(
                f"form has {len(self.coeffs)} coefficients but got {len(matrices)} matrices"
            )
        total = Mat2.zero(self.field)
        for coeff, mat in zip(self.coeffs, matrices):
            if mat.field != self.field:
                raise FieldMismatchError(
                    f"matrix over {mat.field} in a form over {self.field}"
                )
            total = total + mat.square(coeff)
        return total

    def evaluates_to(self, matrices, target: Mat2) -> bool:
        """Whether ``evaluate(matrices) == target``, raising what evaluate raises.

        Over Q and F2(X) the fraction field tests it by cross-multiplying
        (``_Fractions._sums_to``), and no value in lowest terms is built.
        """
        field = self.field
        if not isinstance(field, _Fractions) or target.field != field:
            return self.evaluate(matrices) == target
        matrices = tuple(matrices)
        if len(matrices) != len(self.coeffs) or any(m.field != field for m in matrices):
            self.evaluate(matrices)  # raises its ArityMismatchError or FieldMismatchError
        terms = (
            (c.payload, (m.e11.payload, m.e12.payload, m.e21.payload, m.e22.payload))
            for c, m in zip(self.coeffs, matrices)
        )
        return field._sums_to(terms, tuple(e.payload for e in target.entries()))
