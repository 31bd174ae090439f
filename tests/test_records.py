"""Result records and error types: construction, equality, repr, immutability,
copy and pickle round trips, and what importing the CLI costs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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
    SquareSet,
    UniversalityVerdict,
    build_square_set,
    decompose,
    single_term_witness,
)

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
        assert squares.members == squares.first_preimage.keys()
        assert type(squares.members) is type({}.keys())
        assert Mat2.identity(GF2) in squares
        assert Mat2.nilpotent(GF2) not in squares
        x = squares.first_preimage[Mat2.identity(GF2)]
        assert x.square() == Mat2.identity(GF2)

    def test_direct_construction(self):
        preimages = {Mat2.zero(GF2): Mat2.zero(GF2)}
        squares = SquareSet(GF2, GF2(0), preimages)
        assert squares.first_preimage is preimages
        assert list(squares.members) == [Mat2.zero(GF2)]
        assert Mat2.zero(GF2) in squares
        assert Mat2.identity(GF2) not in squares


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


def _modules_cli_import_loads(names):
    """Which of ``names`` a fresh ``import m2forms.cli`` loads."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import m2forms.cli\n"
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_skips_dataclasses_and_inspect():
    assert _modules_cli_import_loads({"dataclasses", "inspect"}) == "[]"


def test_cli_import_skips_fractions_and_decimal():
    # Q runs on int pairs; only Q(Fraction(...)) imports fractions
    assert _modules_cli_import_loads({"fractions", "decimal"}) == "[]"
