"""Result records and error types: construction, equality, repr, immutability,
copy and pickle round trips; the package's public names, and which modules
importing it and running each CLI command load."""

import copy
import importlib
import os
import pickle
import subprocess
from pathlib import Path

import pytest

import m2forms
from m2forms import (
    NOT_UNIVERSAL,
    UNIVERSAL,
    Decomposition,
    DiagonalForm,
    Mat2,
    NotASquareError,
    NotUniversalFormError,
    ParseError,
    PrimeField,
    SingleTermExplanation,
    UniversalityVerdict,
    build_square_set,
    decompose,
    single_term_witness,
)
from m2forms.oracle import SquareSet

ROOT = Path(__file__).resolve().parent.parent
GF2 = PrimeField(2)
GF3 = PrimeField(3)

FORM = DiagonalForm(GF3, [1, 1])
XS = (Mat2.identity(GF3), Mat2.of(GF3, [[0, 2], [1, 0]]))
ZERO = Mat2.zero(GF3)
N_GF3 = Mat2.nilpotent(GF3)


def decomposition():
    return Decomposition(form=FORM, target=ZERO, matrices=XS)


def verdict():
    return UniversalityVerdict(status=NOT_UNIVERSAL, witness=N_GF3, reason="few-terms")


def explanation():
    return SingleTermExplanation(equations=("0 = 1",), conclusion="none", oracle_confirmed=True)


RECORDS = {
    "Decomposition": (decomposition, decompose(FORM, Mat2.identity(GF3))),
    "UniversalityVerdict": (verdict, UniversalityVerdict(UNIVERSAL, None, "few-terms")),
    "SingleTermExplanation": (explanation, single_term_witness(GF3(2))[1]),
}
MAKERS = [make for make, _ in RECORDS.values()]
IDS = list(RECORDS)


class TestRecordContract:
    def test_keyword_construction(self):
        d = decomposition()
        assert (d.form, d.target, d.matrices) == (FORM, ZERO, XS)
        v = verdict()
        assert (v.status, v.witness, v.reason) == (NOT_UNIVERSAL, N_GF3, "few-terms")
        e = explanation()
        assert (e.equations, e.conclusion, e.oracle_confirmed) == (("0 = 1",), "none", True)

    def test_positional_matches_keyword(self):
        assert Decomposition(FORM, ZERO, XS) == decomposition()
        assert UniversalityVerdict(NOT_UNIVERSAL, N_GF3, "few-terms") == verdict()
        assert SingleTermExplanation(("0 = 1",), "none", True) == explanation()

    @pytest.mark.parametrize("name", IDS)
    def test_equal_values_hash_equal(self, name):
        make, other = RECORDS[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other

    def test_repr(self):
        assert repr(decomposition()) == (
            "Decomposition(form=DiagonalForm(GF(3), [1,1]), "
            "target=Mat2(GF(3)(0), GF(3)(0), GF(3)(0), GF(3)(0)), "
            "matrices=(Mat2(GF(3)(1), GF(3)(0), GF(3)(0), GF(3)(1)), "
            "Mat2(GF(3)(0), GF(3)(2), GF(3)(1), GF(3)(0))))"
        )
        assert repr(verdict()) == (
            "UniversalityVerdict(status='not-universal', "
            "witness=Mat2(GF(3)(0), GF(3)(1), GF(3)(0), GF(3)(0)), reason='few-terms')"
        )
        assert repr(explanation()) == (
            "SingleTermExplanation(equations=('0 = 1',), conclusion='none', "
            "oracle_confirmed=True)"
        )

    @pytest.mark.parametrize(
        "make, field", zip(MAKERS, ["matrices", "witness", "conclusion"]), ids=IDS
    )
    def test_assignment_raises(self, make, field):
        record = make()
        for name in (field, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize("make", MAKERS, ids=IDS)
    def test_copy_deepcopy_pickle(self, make):
        record = make()
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert clone == record
            assert hash(clone) == hash(record)

    def test_checks_still_run(self):
        with pytest.raises(ValueError, match="not the target"):
            Decomposition(FORM, Mat2.identity(GF3), XS)
        with pytest.raises(ValueError, match="needs a witness"):
            UniversalityVerdict(status=NOT_UNIVERSAL, witness=None, reason="r")


class TestSquareSet:
    def test_attributes_members_and_in(self):
        squares = build_square_set(GF2, 1)
        assert squares.field is GF2
        assert squares.coeff == GF2(1)
        assert squares.members == squares._first.keys()
        assert type(squares.members) is type({}.keys())
        assert Mat2.identity(GF2) in squares
        assert Mat2.nilpotent(GF2) not in squares
        x = squares._matrix(squares._first[(1, 0, 0, 1)])  # the payloads of I over GF(2)
        assert x.square() == Mat2.identity(GF2)

    def test_direct_construction(self):
        zero = (0, 0, 0, 0)  # payload 4-tuple of the zero matrix over GF(2)
        squares = SquareSet(GF2, GF2(0), {zero: zero})
        assert list(squares.members) == [zero]
        assert squares._matrix(squares._first[zero]) == Mat2.zero(GF2)
        assert Mat2.zero(GF2) in squares
        assert Mat2.identity(GF2) not in squares

    def test_one_representation(self):
        assert SquareSet.__slots__ == ("field", "coeff", "_first", "_element")
        assert not hasattr(build_square_set(GF2, 1), "first_preimage")


class TestErrorPickling:
    @pytest.mark.parametrize(
        "error, data",
        [
            (NotASquareError(GF3(2)), {"element": GF3(2)}),
            (NotUniversalFormError("never universal", witness=N_GF3), {"witness": N_GF3}),
            (ParseError("bad digit", "1x", 1), {"text": "1x", "pos": 1}),
            (ParseError("bad digit"), {"text": None, "pos": None}),
        ],
        ids=["NotASquare", "NotUniversalForm", "ParseError", "ParseError-no-pos"],
    )
    def test_round_trip(self, error, data):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert repr(clone) == repr(error)
        assert clone.args == error.args
        for name, value in data.items():
            assert getattr(clone, name) == value


SUBMODULES = {f"m2forms.{path.stem}" for path in (ROOT / "src" / "m2forms").glob("*.py")} - {
    "m2forms.__init__"
}


def _modules_loaded(pythons, names, code="import m2forms.cli", argv=None, flags=(), status=0):
    """Which of ``names`` a fresh interpreter loads running ``code`` and then,
    given ``argv``, that CLI command, which must exit ``status``; every
    interpreter in ``pythons`` must load the same ones."""
    run = "" if argv is None else f"assert m2forms.cli.main({list(argv)!r}) == {status}\n"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        f"{run}"
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = {}
    for python in pythons:
        result = subprocess.run(
            [python, "-W", "error", *flags, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (python, result.stderr)
        loaded[python] = result.stdout.splitlines()[-1]
    assert len(set(loaded.values())) == 1, loaded
    return loaded[pythons[0]]


def test_cli_import_skips_dataclasses_and_inspect(pythons):
    assert _modules_loaded(pythons, {"dataclasses", "inspect"}) == "[]"


def test_cli_import_skips_fractions_and_decimal(pythons):
    # Q runs on int pairs; only Q(Fraction(...)) imports fractions
    assert _modules_loaded(pythons, {"fractions", "decimal"}) == "[]"


def test_cli_import_skips_typing(pythons):
    # -S: this interpreter's site may load typing before m2forms does
    assert _modules_loaded(pythons, {"typing"}, flags=["-S"]) == "[]"


def test_package_import_loads_no_submodule(pythons):
    assert _modules_loaded(pythons, SUBMODULES, "import m2forms") == "[]"


# the GF(p^k) and F2(X) families live beside their kernels, in polys and gf2x
KERNELS = {"m2forms.polys", "m2forms.gf2x"}


@pytest.mark.parametrize(
    "argv, absent, status",
    [
        (["universal-z", "--coeffs", "1,1,1"], {"m2forms.fields", "m2forms.matrices"}, 0),
        (
            ["decompose", "--field", "Q", "--coeffs", "1,1", "--target", "[[1,2],[3,4]]"],
            {"m2forms.oracle", "m2forms.universality", "json", *KERNELS},
            0,
        ),
        (
            ["oracle", "--field", "GF(3)", "--coeffs", "1,1", "--target", "[[1,2],[0,1]]"],
            {"m2forms.solver", *KERNELS},
            0,
        ),
        (["universal", "--field", "GF(9)", "--coeffs", "t,1"], {"m2forms.solver", "m2forms.gf2x"}, 0),
        (["counterexample"], {"m2forms.polys"}, 0),
        (
            ["decompose", "--field", "GF(6)", "--coeffs", "1,2", "--target", "[[1,2],[3,4]]"],
            {"m2forms.matrices", "m2forms.solver", *KERNELS},
            3,
        ),
        (
            ["oracle", "--field", "GF(6)", "--coeffs", "1,1", "--target", "[[1,2],[0,1]]"],
            {"m2forms.oracle", "m2forms.matrices", "m2forms.solver", *KERNELS},
            3,
        ),
    ],
    ids=["universal-z", "decompose", "oracle", "universal", "counterexample", "malformed-field",
         "malformed-oracle-field"],
)
def test_cli_command_loads_only_its_modules(argv, absent, status, pythons):
    assert _modules_loaded(pythons, absent, argv=argv, status=status) == "[]"


def test_field_core_import_loads_no_family_kernel(pythons):
    assert _modules_loaded(pythons, KERNELS, "import m2forms.fields") == "[]"


# every public name and the submodule that defines it, in __all__ order
PUBLIC = [
    ("errors", "ArityMismatchError CharacteristicError FieldMismatchError FieldTooLargeError "
               "InfiniteFieldError NotASquareError NotUniversalFormError ParseError"),
    ("polys", "ExtensionField"),
    ("fields", "Field FieldElement PrimeField"),
    ("gf2x", "RationalFunctionField2"),
    ("fields", "Rationals field_from_string"),
    ("matrices", "DiagonalForm Mat2"),
    ("oracle", "MAX_ORDER build_square_set check_universal_exhaustive first_solution "
               "first_unrepresentable representable_two_term"),
    ("solver", "Decomposition decompose"),
    ("universality", "NOT_UNIVERSAL UNDECIDED UNIVERSAL SingleTermExplanation UniversalityVerdict "
                     "decide_universality f2x_counterexample"),
    ("integer_forms", "lee_criterion"),
    ("universality", "single_term_witness"),
]
PUBLIC_NAMES = [(module, name) for module, names in PUBLIC for name in names.split()]
# internals that left the top level; each stays in the submodule that defines it
INTERNAL = [
    ("oracle", "SquareSet"), ("oracle", "all_matrices"), ("solver", "decompose_pair_char2"),
    ("solver", "decompose_pair_odd_char"), ("errors", "ZeroCoefficientError"),
    ("fields", "is_prime"), ("universality", "f2x_necessary_condition"),
]


class TestPackageSurface:
    def test_all_is_pinned(self):
        assert m2forms.__all__ == [name for _, name in PUBLIC_NAMES] + ["__version__"]

    def test_each_name_is_the_defining_modules_object(self):
        for module, name in PUBLIC_NAMES:
            defined = getattr(importlib.import_module(f"m2forms.{module}"), name)
            assert getattr(m2forms, name) is defined, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from m2forms import *", namespace)
        for name in m2forms.__all__:
            assert namespace[name] is getattr(m2forms, name)

    def test_internals_stay_in_their_submodules(self):
        assert len(PUBLIC_NAMES) == 34
        for module, name in INTERNAL:
            assert name not in m2forms.__all__, name
            defined = getattr(importlib.import_module(f"m2forms.{module}"), name)
            assert defined.__module__ == f"m2forms.{module}", name
        assert not hasattr(importlib.import_module("m2forms.universality"), "nilpotent_witness")

    def test_star_import_binds_no_internal(self):
        namespace = {}
        exec("from m2forms import *", namespace)
        for name in [name for _, name in INTERNAL] + ["nilpotent_witness"]:
            assert name not in namespace, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            m2forms.no_such_name

    def test_fresh_package_lists_names_without_loading_them(self, pythons):
        code = "import m2forms\nassert set(m2forms.__all__) <= set(dir(m2forms))"
        assert _modules_loaded(pythons, SUBMODULES, code) == "[]"

    def test_fresh_package_resolves_submodules(self, pythons):
        code = "import m2forms\nassert m2forms.fields.__name__ == 'm2forms.fields'"
        assert _modules_loaded(pythons, {"m2forms.fields", "m2forms.solver"}, code) == "['m2forms.fields']"
