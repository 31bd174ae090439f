"""Exact arithmetic and solvers for diagonal quadratic forms over 2x2 matrices.

The package decides whether sum(ai * Xi**2) represents every 2x2 matrix
over a field, and when it does, constructs the matrices Xi for any given
target, in exact arithmetic.  Supported fields: the rationals, GF(p),
GF(p^k), and the non-perfect GF(2)(x) where the story genuinely changes.
A brute-force oracle over small finite fields double-checks both
directions independently of the constructive solver.
"""

from .errors import (
    ArityMismatchError,
    CharacteristicError,
    FieldMismatchError,
    FieldTooLargeError,
    InfiniteFieldError,
    NotASquareError,
    NotUniversalFormError,
    ParseError,
    ZeroCoefficientError,
)
from .fields import (
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    field_from_string,
    is_prime,
)
from .matrices import DiagonalForm, Mat2
from .oracle import (
    MAX_ORDER,
    SWEEP_MAX_ORDER,
    SquareSet,
    all_matrices,
    build_square_set,
    check_universal_exhaustive,
    first_solution,
    first_unrepresentable,
    representable_two_term,
)
from .solver import (
    Decomposition,
    decompose,
    decompose_pair_char2,
    decompose_pair_odd_char,
)
from .universality import (
    NOT_UNIVERSAL,
    UNDECIDED,
    UNIVERSAL,
    SingleTermExplanation,
    UniversalityVerdict,
    decide_universality,
    f2x_counterexample,
    f2x_necessary_condition,
    lee_criterion,
    nilpotent_witness,
    single_term_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError",
    "CharacteristicError",
    "FieldMismatchError",
    "FieldTooLargeError",
    "InfiniteFieldError",
    "NotASquareError",
    "NotUniversalFormError",
    "ParseError",
    "ZeroCoefficientError",
    "ExtensionField",
    "Field",
    "FieldElement",
    "PrimeField",
    "RationalFunctionField2",
    "Rationals",
    "field_from_string",
    "is_prime",
    "DiagonalForm",
    "Mat2",
    "MAX_ORDER",
    "SWEEP_MAX_ORDER",
    "SquareSet",
    "all_matrices",
    "build_square_set",
    "check_universal_exhaustive",
    "first_solution",
    "first_unrepresentable",
    "representable_two_term",
    "Decomposition",
    "decompose",
    "decompose_pair_char2",
    "decompose_pair_odd_char",
    "NOT_UNIVERSAL",
    "UNDECIDED",
    "UNIVERSAL",
    "SingleTermExplanation",
    "UniversalityVerdict",
    "decide_universality",
    "f2x_counterexample",
    "f2x_necessary_condition",
    "lee_criterion",
    "nilpotent_witness",
    "single_term_witness",
    "__version__",
]
