"""Constructive decomposition: golden values, branch coverage, round-trips."""

import itertools
import random

import pytest

from m2forms import (
    ArityMismatchError,
    CharacteristicError,
    Decomposition,
    DiagonalForm,
    ExtensionField,
    FieldMismatchError,
    Mat2,
    NotASquareError,
    NotUniversalFormError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    decompose,
)
from m2forms.errors import ZeroCoefficientError
from m2forms.solver import decompose_pair_char2, decompose_pair_odd_char

Q = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF4 = ExtensionField(2, 2)
GF8 = ExtensionField(2, 3)
GF9 = ExtensionField(3, 2)
F2X = RationalFunctionField2()


def nonzero_elements(field):
    return [a for a in field.elements() if not a.is_zero()]


class TestOddCharGolden:
    def test_rational_worked_example(self):
        # a1=2, a2=1, target [[1/5,2],[0,-1]]: every entry is pinned
        x1, x2 = decompose_pair_odd_char(Q(2), Q(1), Mat2.parse(Q, "[[1/5,2],[0,-1]]"))
        assert x1 == Mat2.parse(Q, "[[4/5,1],[0,1/5]]")
        assert x2 == Mat2.parse(Q, "[[0,-27/25],[1,0]]")

    def test_gf3_zero_target(self):
        x1, x2 = decompose_pair_odd_char(GF3(1), GF3(1), Mat2.zero(GF3))
        assert x1 == Mat2.identity(GF3)
        assert x2 == Mat2.of(GF3, [[0, 2], [1, 0]])

    def test_gf3_identity_target(self):
        x1, x2 = decompose_pair_odd_char(GF3(1), GF3(1), Mat2.identity(GF3))
        assert x1 == Mat2.identity(GF3)
        assert x2 == Mat2.of(GF3, [[0, 0], [1, 0]])

    def test_free_parameter_convention(self):
        # x2 = w2 = 0 and z2 = 1 in every odd-characteristic solution
        rng = random.Random(8)
        for _ in range(20):
            target = Mat2(*(Q.random_element(rng) for _ in range(4)))
            _, x2 = decompose_pair_odd_char(Q(2), Q(3), target)
            assert x2.e11.is_zero() and x2.e22.is_zero()
            assert x2.e21 == Q(1)

    def test_wrong_characteristic(self):
        with pytest.raises(CharacteristicError):
            decompose_pair_odd_char(GF2(1), GF2(1), Mat2.zero(GF2))

    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficientError):
            decompose_pair_odd_char(Q(0), Q(1), Mat2.zero(Q))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            decompose_pair_odd_char(Q(1), Q(1), Mat2.zero(GF5))


class TestChar2Golden:
    def test_gf2_nilpotent_target(self):
        # p == s with q != 0
        x1, x2 = decompose_pair_char2(GF2(1), GF2(1), Mat2.of(GF2, [[0, 1], [0, 0]]))
        assert x1 == Mat2.of(GF2, [[1, 1], [1, 0]])
        assert x2 == Mat2.of(GF2, [[0, 0], [1, 1]])

    def test_gf4_scalar_target(self):
        t = GF4.parse("t")
        target = Mat2.identity(GF4).scale(t)
        x1, x2 = decompose_pair_char2(GF4(1), GF4(1), target)
        assert x1 == Mat2.identity(GF4).scale(GF4.parse("t+1"))
        assert x2 == Mat2.zero(GF4)

    def test_zero_target_gives_zero_matrices(self):
        x1, x2 = decompose_pair_char2(GF2(1), GF2(1), Mat2.zero(GF2))
        assert x1 == Mat2.zero(GF2)
        assert x2 == Mat2.zero(GF2)

    def test_distinct_diagonal_branch(self):
        target = Mat2.parse(GF4, "[[t,1],[t+1,0]]")
        x1, x2 = decompose_pair_char2(GF4(1), GF4(1), target)
        assert x1.e22.is_zero() and x2.e11.is_zero() and x2.e22.is_zero()
        assert x2.e21 == GF4(1)

    def test_transposed_branch(self):
        # p == s, q == 0, r != 0 mirrors the q != 0 branch
        target = Mat2.of(GF2, [[0, 0], [1, 0]])
        x1, x2 = decompose_pair_char2(GF2(1), GF2(1), target)
        mirror1, mirror2 = decompose_pair_char2(GF2(1), GF2(1), target.transpose())
        assert x1 == mirror1.transpose()
        assert x2 == mirror2.transpose()
        assert x1.square() + x2.square() == target

    def test_wrong_characteristic(self):
        with pytest.raises(CharacteristicError):
            decompose_pair_char2(GF3(1), GF3(1), Mat2.zero(GF3))

    def test_non_perfect_failure(self):
        x = F2X.parse("x")
        target = Mat2.of(F2X, [["x", 0], [0, 0]])
        with pytest.raises(NotASquareError) as err:
            decompose_pair_char2(F2X(1), F2X(1), target)
        assert err.value.element == x

    @pytest.mark.parametrize(
        "coeffs, entry", [((1, 1), "x"), (("x", 1), "1"), (("x+1", "x"), "(x^2+1)/x")]
    )
    def test_non_perfect_scalar_without_a_root(self, coeffs, entry):
        # [[0,1],[c,0]]**2 == c*I, so a scalar target needs no square root
        a1, a2 = (F2X(c) if isinstance(c, int) else F2X.parse(c) for c in coeffs)
        target = Mat2.parse(F2X, f"[[{entry},0],[0,{entry}]]")
        c = target.e11 / a1
        assert not c.is_square()
        x1, x2 = decompose_pair_char2(a1, a2, target)
        assert x1 == Mat2(F2X.zero(), F2X.one(), c, F2X.zero())
        assert x2 == Mat2.zero(F2X)
        assert x1.square().scale(a1) + x2.square().scale(a2) == target

    def test_non_perfect_success_past_the_root(self):
        # p + s = x^2 has the root x, so this target decomposes fine
        target = Mat2.of(F2X, [["x^2", 0], [0, 0]])
        x1, x2 = decompose_pair_char2(F2X(1), F2X(1), target)
        value = x1.square() + x2.square()
        assert value == target


# One row per caller of the shared back-substitution, each of which
# supplies t = 1/(a1*(x1+w1)): the odd construction with p == s, where
# x1 = w1 = 1; the odd one with p != s, where x1 + w1 = 1; and the
# characteristic-2 one with p != s, where w1 = 0.  The witnesses were
# generated by inverting a1*(x1+w1) in full, so a wrong t changes them.
BIG_Q_A1 = "1234567890123456789012345678901234567891/97"
BIG_Q_A2 = "-3/9876543210987654321098765432109876543211"
BACK_SUBSTITUTION_ROWS = [
    (
        Q, BIG_Q_A1, BIG_Q_A2,
        "[[5555555555555555555555555555555555555557/3,-7777777777777777777777777777777777777771/13],"
        "[2222222222222222222222222222222222222229/11,5555555555555555555555555555555555555557/3]]",
        "[[1,-754444444444444444444444444444444444443787/32098765143209876514320987651432098765166],"
        "[215555555555555555555555555555555555556213/27160493582716049358271604935827160493602,1]]",
        "[[0,-8551183335086187473626598729268925177921083004322569527406507708824496953029"
        "464315693533691472964542891888250608321072572055/616488883340488888334048888833404888883778196],"
        "[1,0]]",
    ),
    (
        Q, BIG_Q_A1, BIG_Q_A2,
        "[[5555555555555555555555555555555555555557/3,-7777777777777777777777777777777777777771/13],"
        "[2222222222222222222222222222222222222229/11,-4444444444444444444444444444444444444449/7]]",
        "[[5091481481248148148124814814812481481483573/51851851385185185138518518513851851851422,"
        "-754444444444444444444444444444444444443787/16049382571604938257160493825716049382583],"
        "[215555555555555555555555555555555555556213/13580246791358024679135802467913580246801,"
        "-5039629629862962962986296296298629629632151/51851851385185185138518518513851851851422]]",
        "[[0,332267126148824203364307563058922053843163901465613541386686016743841558178248651447"
        "73134868131974490762002997019864119270058757/90623865851051866585105186658510518665915394812],"
        "[1,0]]",
    ),
    (
        F2X, "x^3+x+1", "(x^5+x^2)/(x^6+x+1)",
        "[[(x^5+x^3+x+1)/(x^4+x^2+x),(x^8+x^7+x^4+x+1)/(x^3+x^2+1)],"
        "[(x^6+x^5+1)/(x^8+x^2+x),(x^15+x^11+x^9+x^5+x^4+x^3+1)/(x^8+x^6+x^5+x^4+x^2+x)]]",
        "[[(x^4+x+1)/(x^2+1),(x^10+x^9+x^8+x^7+x^6+x^4+x^3+x^2+x+1)/(x^10+x^9+x^8+x^6+x^5+x^4+1)],"
        "[(x^8+x^7+x^6+x^5+x^2+1)/(x^15+x^13+x^11+x^10+x^9+x^7+x^6+x^5+x^3+x^2+x),0]]",
        "[[0,(x^36+x^35+x^33+x^32+x^30+x^28+x^25+x^24+x^20+x^17+x^16+x^15+x^14+x^12+x^11+x^9+x^6+x^4+x)"
        "/(x^28+x^27+x^26+x^24+x^23+x^22+x^20+x^19+x^18+x^15+x^14+x^13+x^12+x^7+x^6+x^5+x^4+x^3+x^2+1)],"
        "[1,0]]",
    ),
]


class TestBackSubstitutionGolden:
    @pytest.mark.parametrize(
        "field, c1, c2, target, want1, want2",
        BACK_SUBSTITUTION_ROWS,
        ids=["odd p == s", "odd p != s", "char 2 p != s"],
    )
    def test_exact_witness(self, field, c1, c2, target, want1, want2):
        a1, a2 = field.parse(c1), field.parse(c2)
        target = Mat2.parse(field, target)
        pair = decompose_pair_char2 if field.characteristic == 2 else decompose_pair_odd_char
        x1, x2 = pair(a1, a2, target)
        assert (str(x1), str(x2)) == (want1, want2)
        assert x1.square().scale(a1) + x2.square().scale(a2) == target


class TestExhaustiveTotality:
    @pytest.mark.parametrize("field", [GF2, GF3, GF4, GF5], ids=str)
    def test_every_pair_every_target(self, field):
        units = nonzero_elements(field)
        elems = list(field.elements())
        pair = decompose_pair_char2 if field.characteristic == 2 else decompose_pair_odd_char
        for a1, a2 in itertools.product(units, repeat=2):
            for entries in itertools.product(elems, repeat=4):
                target = Mat2(*entries)
                x1, x2 = pair(a1, a2, target)
                assert x1.square().scale(a1) + x2.square().scale(a2) == target


class TestDecompose:
    def test_zero_slots_for_zero_coefficients(self):
        form = DiagonalForm(Q, [0, 2, 0, 1])
        target = Mat2.parse(Q, "[[1/5,2],[0,-1]]")
        result = decompose(form, target)
        assert result.matrices[0] == Mat2.zero(Q)
        assert result.matrices[2] == Mat2.zero(Q)
        assert result.matrices[1] == Mat2.parse(Q, "[[4/5,1],[0,1/5]]")
        assert result.matrices[3] == Mat2.parse(Q, "[[0,-27/25],[1,0]]")
        assert form.evaluate(result.matrices) == target

    def test_single_term_refused(self):
        form = DiagonalForm(GF5, [7])
        with pytest.raises(NotUniversalFormError) as err:
            decompose(form, Mat2.zero(GF5))
        assert err.value.witness == Mat2.of(GF5, [[0, 1], [0, 0]])

    def test_zero_form_refused(self):
        form = DiagonalForm(GF2, [0, 0, 0])
        with pytest.raises(NotUniversalFormError):
            decompose(form, Mat2.zero(GF2))

    def test_field_mismatch(self):
        form = DiagonalForm(Q, [1, 1])
        with pytest.raises(FieldMismatchError):
            decompose(form, Mat2.zero(GF5))

    def test_non_perfect_error_propagates(self):
        form = DiagonalForm(F2X, [1, 1])
        target = Mat2.of(F2X, [["x", 0], [0, 0]])
        with pytest.raises(NotASquareError):
            decompose(form, target)

    @pytest.mark.parametrize("field", [Q, GF5, PrimeField(7), GF8, GF9], ids=str)
    def test_random_round_trips(self, field):
        rng = random.Random(9)
        for _ in range(200):
            m = rng.randint(2, 4)
            coeffs = [field.random_element(rng) for _ in range(m)]
            lo, hi = rng.sample(range(m), 2)
            one = field.one()
            coeffs[lo] = one if coeffs[lo].is_zero() else coeffs[lo]
            coeffs[hi] = one if coeffs[hi].is_zero() else coeffs[hi]
            form = DiagonalForm(field, coeffs)
            target = Mat2(*(field.random_element(rng) for _ in range(4)))
            result = decompose(form, target)
            assert form.evaluate(result.matrices) == target

    def test_lowest_index_pair_selected(self):
        form = DiagonalForm(GF5, [0, 1, 2, 3])
        result = decompose(form, Mat2.identity(GF5))
        direct1, direct2 = decompose_pair_odd_char(GF5(1), GF5(2), Mat2.identity(GF5))
        assert result.matrices[1] == direct1
        assert result.matrices[2] == direct2
        assert result.matrices[3] == Mat2.zero(GF5)


class TestDecomposition:
    def test_constructor_verifies(self):
        form = DiagonalForm(GF3, [1, 1])
        target = Mat2.identity(GF3)
        with pytest.raises(ValueError):
            Decomposition(form, target, (Mat2.zero(GF3), Mat2.zero(GF3)))

    def test_valid_construction(self):
        form = DiagonalForm(GF3, [1, 1])
        target = Mat2.zero(GF3)
        xs = (Mat2.identity(GF3), Mat2.of(GF3, [[0, 2], [1, 0]]))
        d = Decomposition(form, target, xs)
        assert d.matrices == xs

    # over Q and F2(X) the constructor checks by cross-multiplying, not by evaluate
    FRACTION_CASES = [
        (Q, [2, 1, 0], "[[1/5,2],[0,-1]]"),
        (Q, [3, -7], f"[[{'9' * 40}/7,-1/{'3' * 40}],[5,{'8' * 40}]]"),
        (F2X, [1, "x", 1], "[[x^2+1,1/(x+1)],[x,1]]"),
    ]

    @pytest.mark.parametrize("field, coeffs, target", FRACTION_CASES, ids=["Q", "Q40", "F2X"])
    def test_fraction_fields_reject_one_wrong_matrix(self, field, coeffs, target):
        form = DiagonalForm(field, coeffs)
        target = Mat2.parse(field, target)
        xs = decompose(form, target).matrices
        assert Decomposition(form, target, xs).matrices == xs
        for i in form.nonzero_indices():
            wrong = list(xs)
            wrong[i] = xs[i] + Mat2.identity(field)
            with pytest.raises(ValueError, match="not the target"):
                Decomposition(form, target, tuple(wrong))

    @pytest.mark.parametrize("field", [Q, F2X], ids=str)
    def test_fraction_fields_reject_wrong_arity_and_field(self, field):
        form = DiagonalForm(field, [1, 1])
        target = Mat2.identity(field)
        with pytest.raises(ArityMismatchError):
            Decomposition(form, target, (Mat2.identity(field),))
        with pytest.raises(FieldMismatchError):
            Decomposition(form, target, (Mat2.identity(field), Mat2.zero(GF3)))


# The element-level constructions the payload ones replaced, kept here as
# the reference: every intermediate is a FieldElement in lowest terms.
def element_back_substitute(a1, a2, target, x1, w1, t):
    _, q, r, s = target.entries()
    y1, z1 = q * t, r * t
    y2 = (s - a1 * (y1 * z1 + w1 * w1)) / a2
    zero = target.field.zero()
    return Mat2(x1, y1, z1, w1), Mat2(zero, y2, target.field.one(), zero)


def element_odd_char(a1, a2, target):
    p, s = target.e11, target.e22
    half = (2 * a1).inv()
    if p == s:
        one = target.field.one()
        return element_back_substitute(a1, a2, target, one, one, half)
    gap = p - s
    return element_back_substitute(a1, a2, target, (gap + a1) * half, (a1 - gap) * half, a1.inv())


def element_char2(a1, a2, target):
    field = target.field
    p, q, r, s = target.entries()
    zero, one = field.zero(), field.one()
    if p != s:
        x1 = ((p + s) / a1).sqrt()
        return element_back_substitute(a1, a2, target, x1, zero, (a1 * x1).inv())
    if q.is_zero() and r.is_zero():
        c = p / a1
        try:
            root = c.sqrt()
        except NotASquareError:
            return Mat2(zero, one, c, zero), Mat2.zero(field)
        return Mat2(root, zero, zero, root), Mat2.zero(field)
    if not q.is_zero():
        x1 = (a2 / a1).sqrt()
        balance, q_inv = p + a2, q.inv()
        z2 = r / a2 + balance * q_inv
        return Mat2(x1, q / (a1 * x1), balance * x1 * q_inv, zero), Mat2(zero, zero, z2, one)
    x1, x2 = element_char2(a1, a2, target.transpose())
    return x1.transpose(), x2.transpose()


def _q_entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Q(0)
    if kind == 1:
        return Q(rng.randint(-9, 9))
    big = rng.randint(10**39, 10**40) * rng.choice((1, -1))
    return Q.parse(f"{big}/{rng.randint(1, 10**40)}")


def _f2x_entry(rng):
    num, den = rng.randrange(512), rng.randrange(1, 512)  # degree < 9 over degree < 9
    return F2X.parse(f"({_poly(num)})/({_poly(den)})")


def _poly(bits):  # bits < 512
    terms = ["1", "x", *(f"x^{e}" for e in range(2, 9))]
    return "+".join(t for e, t in enumerate(terms) if bits >> e & 1) or "0"


def _nonzero(draw, rng):
    while (x := draw(rng)).is_zero():
        pass
    return x


class TestSameAnswersAsElementFormulas:
    """decompose answers equal the element formulas', entries in lowest terms."""

    def check(self, a1, a2, target, reference):
        form = DiagonalForm(target.field, [0, a1, a2])
        try:
            want = reference(a1, a2, target)
        except NotASquareError as exc:
            with pytest.raises(NotASquareError) as err:
                decompose(form, target)
            assert err.value.element == exc.element
            assert err.value.element.payload == exc.element.payload
            return "no root"
        got = decompose(form, target).matrices
        assert got == (Mat2.zero(target.field), *want)
        field = target.field
        for entry in (e for x in got for e in x.entries()):
            if field in (Q, F2X):
                assert field._reduce(*entry.payload) == entry.payload
            if field is Q:
                assert entry.payload[1] > 0
        return "solved"

    def test_rationals(self):
        rng = random.Random(32)
        seen = set()
        for i in range(300):
            a1, a2 = _nonzero(_q_entry, rng), _nonzero(_q_entry, rng)
            p, q, r, s = (_q_entry(rng) for _ in range(4))
            if i % 3 == 0:
                s = p
            target = Mat2(p, q, r, s)
            self.check(a1, a2, target, element_odd_char)
            seen.add((p == s, any(e.payload[0] < 0 for e in target.entries())))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_rational_functions_every_branch(self):
        rng = random.Random(33)
        x = F2X.parse("x")
        seen = set()
        for i in range(400):
            a1, a2 = _nonzero(_f2x_entry, rng), _nonzero(_f2x_entry, rng)
            p, q, r, s = (_f2x_entry(rng) for _ in range(4))
            square = a1 * _nonzero(_f2x_entry, rng) ** 2  # has a root over a1
            shape = i % 8
            if shape < 2:  # p != s: with a root of (p+s)/a1, then usually without one
                s = p + (square if shape == 0 else _nonzero(_f2x_entry, rng))
            elif shape < 4:  # scalar: with a root of p/a1, then without one
                p = s = square * (x if shape == 3 else 1)
                q = r = F2X(0)
            elif shape < 6:  # p == s, q != 0: with a root of a2/a1, then usually without
                s, q = p, _nonzero(_f2x_entry, rng)
                a2 = square if shape == 4 else a2
            else:  # the transposed branch: p == s, q == 0, r != 0
                s, q, r = p, F2X(0), _nonzero(_f2x_entry, rng)
                a2 = square if shape == 6 else a2
            seen.add((shape, self.check(a1, a2, Mat2(p, q, r, s), element_char2)))
        assert {(k, "solved") for k in (0, 2, 3, 4, 6)} | {(k, "no root") for k in (1, 5, 7)} <= seen

    @pytest.mark.parametrize(
        "field",
        [GF3, GF5, PrimeField(2**61 - 1), GF9, ExtensionField(3, 3), GF2, GF4, GF8,
         ExtensionField(2, 4)],
        ids=str,
    )
    def test_finite_fields(self, field):
        rng = random.Random(34)
        reference = element_char2 if field.characteristic == 2 else element_odd_char
        zero = field.zero()
        for i in range(200):
            a1, a2 = (_nonzero(field.random_element, rng) for _ in range(2))
            p, q, r, s = (field.random_element(rng) for _ in range(4))
            if i % 4 == 1:
                s = p
            elif i % 4 == 2:
                s, q = p, zero
            elif i % 4 == 3:
                s, q, r = p, zero, zero
            assert self.check(a1, a2, Mat2(p, q, r, s), reference) == "solved"
