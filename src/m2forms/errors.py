"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class ParseError(ValueError):
    """Malformed element, matrix, or field description text."""

    def __init__(self, message, text=None, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


class CharacteristicError(ValueError):
    """Operation undefined at this field characteristic."""


class ZeroCoefficientError(ValueError):
    """A coefficient that must be nonzero is zero."""


class ArityMismatchError(ValueError):
    """Number of matrices does not match the number of coefficients."""


class NotASquareError(ArithmeticError):
    """Element has no square root in its field.

    Carries the offending element.  Over a non-perfect field of
    characteristic 2 this is how the decomposition solver reports the
    target it cannot reach.
    """

    def __init__(self, element):
        # args holds the element; the message is rendered only when shown,
        # since most of these are caught and discarded
        super().__init__(element)
        self.element = element

    def __str__(self):
        return f"not a square: {self.element}"

    def __reduce__(self):
        # unpickling calls the class again: pass the element, not the message
        return type(self), (self.element,)


class NotUniversalFormError(ValueError):
    """The form cannot represent every 2x2 matrix.

    Carries a witness matrix that the form does not represent.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FieldTooLargeError(ValueError):
    """Field order exceeds the exhaustive-search bound."""


class InfiniteFieldError(ValueError):
    """Enumeration requested over an infinite field."""
