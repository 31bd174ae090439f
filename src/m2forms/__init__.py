"""Exact arithmetic and solvers for diagonal quadratic forms over 2x2 matrices.

The package decides whether sum(ai * Xi**2) represents every 2x2 matrix
over a field, and when it does, constructs the matrices Xi for any given
target, in exact arithmetic.  Supported fields: the rationals, GF(p),
GF(p^k), and the non-perfect GF(2)(x) where the story genuinely changes.
A brute-force oracle over small finite fields double-checks both
directions independently of the constructive solver.

The public names answer the three questions (decide, construct,
cross-check) and name their records, fields, matrices, forms and the
errors callers catch; internals are imported from their submodules.
Importing the package loads none of its submodules: each public name
below is imported from its submodule on first access (PEP 562).
"""

import importlib

# public name -> the submodule that defines it, in __all__ order
_EXPORTS = {
    "ArityMismatchError": "errors",
    "CharacteristicError": "errors",
    "FieldMismatchError": "errors",
    "FieldTooLargeError": "errors",
    "InfiniteFieldError": "errors",
    "NotASquareError": "errors",
    "NotUniversalFormError": "errors",
    "ParseError": "errors",
    "ExtensionField": "polys",
    "Field": "fields",
    "FieldElement": "fields",
    "PrimeField": "fields",
    "RationalFunctionField2": "gf2x",
    "Rationals": "fields",
    "field_from_string": "fields",
    "DiagonalForm": "matrices",
    "Mat2": "matrices",
    "MAX_ORDER": "oracle",
    "build_square_set": "oracle",
    "check_universal_exhaustive": "oracle",
    "first_solution": "oracle",
    "first_unrepresentable": "oracle",
    "representable_two_term": "oracle",
    "Decomposition": "solver",
    "decompose": "solver",
    "NOT_UNIVERSAL": "universality",
    "UNDECIDED": "universality",
    "UNIVERSAL": "universality",
    "SingleTermExplanation": "universality",
    "UniversalityVerdict": "universality",
    "decide_universality": "universality",
    "f2x_counterexample": "universality",
    "lee_criterion": "integer_forms",
    "single_term_witness": "universality",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:  # a submodule not imported yet, such as m2forms.polys
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
