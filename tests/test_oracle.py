"""Brute-force oracle: square sets, witnesses, sweeps, bounds, determinism."""

import gc
import itertools
import random
import weakref

import pytest

import m2forms.oracle
from m2forms import (
    DiagonalForm,
    ExtensionField,
    FieldElement,
    FieldMismatchError,
    FieldTooLargeError,
    InfiniteFieldError,
    Mat2,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    build_square_set,
    check_universal_exhaustive,
    decompose,
    first_solution,
    first_unrepresentable,
    representable_two_term,
)
from m2forms.oracle import SquareSet, all_matrices

Q = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF11 = PrimeField(11)
GF13 = PrimeField(13)
GF4 = ExtensionField(2, 2)
GF8 = ExtensionField(2, 3)
GF9 = ExtensionField(3, 2)
GF16 = ExtensionField(2, 4)
F2X = RationalFunctionField2()
FIELDS = [GF2, GF3, GF4, GF5, GF7, GF8, GF9, GF11, GF13, GF16]
FIELD_IDS = ["GF2", "GF3", "GF4", "GF5", "GF7", "GF8", "GF9", "GF11", "GF13", "GF16"]

N_GF2 = Mat2.of(GF2, [[0, 1], [0, 0]])
N_GF3 = Mat2.of(GF3, [[0, 1], [0, 0]])


class TestEnumeration:
    def test_count_and_order(self):
        mats = list(all_matrices(GF2))
        assert len(mats) == 16
        assert mats[0] == Mat2.zero(GF2)
        assert mats[1] == Mat2.of(GF2, [[0, 0], [0, 1]])
        assert mats[-1] == Mat2.of(GF2, [[1, 1], [1, 1]])

    def test_infinite_fields_rejected(self):
        with pytest.raises(InfiniteFieldError):
            next(all_matrices(Q))
        with pytest.raises(InfiniteFieldError):
            next(all_matrices(F2X))


class TestSquareSet:
    def test_gf2_membership(self):
        squares = build_square_set(GF2, 1)
        assert Mat2.of(GF2, [[0, 1], [1, 1]]) in squares  # [[1,1],[1,0]]^2
        assert Mat2.zero(GF2) in squares
        assert len(squares.members) <= 16

    def test_zero_coefficient(self):
        squares = build_square_set(GF5, 0)
        assert [squares._matrix(v) for v in squares.members] == [Mat2.zero(GF5)]

    def test_nilpotent_excluded(self):
        squares = build_square_set(GF3, 1)
        assert N_GF3 not in squares

    def test_first_preimage_consistency(self):
        squares = build_square_set(GF3, 2)
        for value, x in squares._first.items():
            assert squares._matrix(x).square().scale(GF3(2)) == squares._matrix(value)

    def test_preimage_is_first_in_order(self):
        squares = build_square_set(GF2, 1)
        zero = (0, 0, 0, 0)  # payload 4-tuple of the zero matrix over GF(2)
        assert squares._matrix(squares._first[zero]) == Mat2.zero(GF2)

    def test_order_bound(self):
        with pytest.raises(FieldTooLargeError):
            build_square_set(ExtensionField(5, 2), 1)  # order 25 > 16

    def test_boundary_order_allowed(self):
        squares = build_square_set(ExtensionField(2, 4), 1)
        assert Mat2.zero(ExtensionField(2, 4)) in squares

    # every coefficient for q <= 5; 1 and the last element for q = 7, 8, 9;
    # the last element for GF(11) and GF(13) (prime-field hooks) and for
    # GF(16) (characteristic-2 xor at MAX_ORDER)
    @pytest.mark.parametrize(
        "field, which",
        [(GF2, "all"), (GF3, "all"), (GF4, "all"), (GF5, "all")]
        + [(GF7, "1,last"), (GF8, "1,last"), (GF9, "1,last")]
        + [(GF11, "last"), (GF13, "last"), (GF16, "last")],
        ids=["GF2", "GF3", "GF4", "GF5", "GF7", "GF8", "GF9", "GF11", "GF13", "GF16"],
    )
    def test_matches_mat2_enumeration(self, field, which):
        elems = list(field.elements())
        for a in {"all": elems, "1,last": [field(1), elems[-1]], "last": elems[-1:]}[which]:
            first = {}
            for x in all_matrices(field):
                first.setdefault(x.square().scale(a), x)
            squares = build_square_set(field, a)
            matrix = squares._matrix
            assert [(matrix(v), matrix(x)) for v, x in squares._first.items()] == list(first.items()), a

    def test_build_takes_no_matrix_square(self, square_calls):
        squares = build_square_set(GF9, 1)
        assert len(squares.members) == 2381
        assert square_calls == []

    def test_build_calls_each_hook_at_most_q_squared_times(self, monkeypatch):
        t, calls = GF9.parse("t"), {"_add": 0, "_mul": 0}
        for name in calls:
            def counted(x, y, name=name, hook=getattr(GF9, name)):
                calls[name] += 1
                return hook(x, y)

            monkeypatch.setattr(GF9, name, counted)  # GF9 is interned: undone at teardown
        m2forms.oracle._TABLES.pop(GF9, None)  # the first build makes the field's tables
        squares = build_square_set(GF9, t)
        assert len(squares.members) == 2381
        assert 0 < calls["_add"] <= 9 * 9 and 0 < calls["_mul"] <= 9 * 9, calls
        calls.update(_add=0, _mul=0)  # a second build reuses them
        again = build_square_set(GF9, 1)
        assert calls == {"_add": 0, "_mul": 0}
        assert again._first == reference_first(GF9, 1)

    # in characteristic 2 every X of nonzero trace gives a square of its own
    @pytest.mark.parametrize(
        "field, which", [(GF2, "all"), (GF4, "all"), (GF8, "all"), (GF16, "1,last")],
        ids=["GF2", "GF4", "GF8", "GF16"],
    )
    def test_char2_size_is_q4_minus_q3_plus_q(self, field, which):
        elems, q = list(field.elements()), field.order
        for a in [a for a in elems if a] if which == "all" else [field(1), elems[-1]]:
            assert len(build_square_set(field, a).members) == q**4 - q**3 + q, a

    def test_tables_keep_no_field_alive(self):
        field = ExtensionField(3, 2, "t^2+2*t+2")
        ref = weakref.ref(field)
        assert len(build_square_set(field, 1).members) == 2381
        assert field in m2forms.oracle._TABLES
        del field
        gc.collect()
        assert ref() is None


class TestRepresentableTwoTerm:
    def test_nilpotent_over_gf2(self):
        found = representable_two_term(1, 1, N_GF2, GF2)
        assert found is not None
        x1, x2 = found
        assert x1.square() + x2.square() == N_GF2

    def test_agrees_with_solver(self):
        form = DiagonalForm(GF2, [1, 1])
        solved = decompose(form, N_GF2).matrices
        assert form.evaluate(solved) == N_GF2

    def test_zero_second_coefficient(self):
        assert representable_two_term(1, 0, N_GF2, GF2) is None

    def test_deterministic_witness(self):
        first = representable_two_term(1, 2, Mat2.identity(GF3), GF3)
        second = representable_two_term(1, 2, Mat2.identity(GF3), GF3)
        assert first == second

    def test_square_set_reuse(self):
        squares = build_square_set(GF3, 2)
        direct = representable_two_term(1, 2, N_GF3, GF3)
        reused = representable_two_term(1, 2, N_GF3, GF3, square_set=squares)
        assert direct == reused

    def test_mismatched_square_set_rebuilt(self):
        wrong = build_square_set(GF3, 1)
        result = representable_two_term(1, 2, N_GF3, GF3, square_set=wrong)
        assert result == representable_two_term(1, 2, N_GF3, GF3)

    def test_every_witness_evaluates(self):
        for target in all_matrices(GF3):
            found = representable_two_term(2, 1, target, GF3)
            assert found is not None
            x1, x2 = found
            assert x1.square().scale(GF3(2)) + x2.square() == target


class TestSweep:
    def test_two_units_over_gf2(self):
        assert check_universal_exhaustive(1, 1, GF2) == (True, None)

    def test_degenerate_pair_over_gf2(self):
        ok, counterexample = check_universal_exhaustive(1, 0, GF2)
        assert not ok
        assert counterexample is not None
        # the standard nilpotent witness is among the unrepresented targets
        squares = build_square_set(GF2, 1)
        assert N_GF2 not in squares

    def test_first_counterexample_is_deterministic(self):
        first = check_universal_exhaustive(1, 0, GF2)
        second = check_universal_exhaustive(1, 0, GF2)
        assert first == second

    def test_gf5_sweep(self):
        assert check_universal_exhaustive(2, 3, GF5) == (True, None)

    def test_gf4_sweep(self):
        t = GF4.parse("t")
        assert check_universal_exhaustive(t, GF4(1), GF4) == (True, None)

    def test_sweep_bound(self):
        with pytest.raises(FieldTooLargeError):
            check_universal_exhaustive(1, 1, PrimeField(17))

    def test_infinite_rejected(self):
        with pytest.raises(InfiniteFieldError):
            check_universal_exhaustive(1, 1, Q)


def mat2_sweep(a1, a2, field):
    """check_universal_exhaustive on the Mat2 layer, as a reference."""
    images2 = {x.square().scale(a2) for x in all_matrices(field)}
    values1 = list(dict.fromkeys(x.square().scale(a1) for x in all_matrices(field)))
    for target in all_matrices(field):
        if not any(target - v in images2 for v in values1):
            return False, target
    return True, None


class TestPayloadSweep:
    @pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
    def test_every_pair_matches_mat2_sweep(self, field):
        for a1, a2 in itertools.product(list(field.elements()), repeat=2):
            assert check_universal_exhaustive(a1, a2, field) == mat2_sweep(a1, a2, field), (a1, a2)

    def test_gf5_pairs_match_mat2_sweep(self):
        rng = random.Random(18)
        pairs = [(0, 0), (0, 2), (3, 0)] + [(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(3)]
        for a1, a2 in pairs:
            assert check_universal_exhaustive(a1, a2, GF5) == mat2_sweep(a1, a2, GF5), (a1, a2)

    def test_sweep_takes_no_matrix_square(self, square_calls):
        assert check_universal_exhaustive(1, 0, GF4)[0] is False
        assert check_universal_exhaustive(2, 3, GF5) == (True, None)
        assert square_calls == []

    def test_only_the_counterexample_becomes_a_matrix(self, mat2_inits):
        assert check_universal_exhaustive(2, 3, GF5) == (True, None)
        assert mat2_inits == []
        ok, counterexample = check_universal_exhaustive(1, 0, GF4)
        assert not ok and len(mat2_inits) == 1


def reference_first(field, coeff):
    """build_square_set's payload map from every X, as a reference.

    The same tables and loop, without the skip rules: each of the q**4
    payload 4-tuples X goes through ``setdefault``.
    """
    payloads = [e.payload for e in field.elements()]
    add = {x: {y: field._add(x, y) for y in payloads} for x in payloads}
    mul = {x: {y: field._mul(x, y) for y in payloads} for x in payloads}
    times_k = mul[field(coeff).payload]
    k_squares = [times_k[mul[d][d]] for d in payloads]
    first = {}
    for a, ka2 in zip(payloads, k_squares):
        plus_a, plus_ka2 = add[a], add[ka2]
        sums = [plus_a[d] for d in payloads]
        for b in payloads:
            times_kb = mul[times_k[b]]
            for c in payloads:
                times_kc, kbc = mul[times_k[c]], times_kb[c]
                plus_kbc, e11 = add[kbc], plus_ka2[kbc]
                for d, kd2, s in zip(payloads, k_squares, sums):
                    first.setdefault((e11, times_kb[s], times_kc[s], plus_kbc[kd2]), (a, b, c, d))
    return first


def reference_sweep(a1, a2, field):
    """check_universal_exhaustive by walking every target, as a reference."""
    if not field(a2):
        a1, a2 = a2, a1
    values1, second = list(reference_first(field, a1)), reference_first(field, a2)
    sub, element = field._sub, {e.payload: e for e in field.elements()}
    for t11, t12, t21, t22 in itertools.product(element, repeat=4):
        for v11, v12, v21, v22 in values1:
            if (sub(t11, v11), sub(t12, v12), sub(t21, v21), sub(t22, v22)) in second:
                break
        else:
            return False, Mat2(*map(element.__getitem__, (t11, t12, t21, t22)))
    return True, None


class TestSkipRules:
    """Square sets skip repeated squares; sweeps test one target per class."""

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_every_coefficient_matches_full_enumeration(self, field):
        for a in field.elements():
            expected = list(reference_first(field, a).items())
            assert list(build_square_set(field, a)._first.items()) == expected, a

    @pytest.mark.parametrize("field", FIELDS[:7], ids=FIELD_IDS[:7])
    def test_every_pair_matches_target_walk(self, field):
        for a1, a2 in itertools.product(list(field.elements()), repeat=2):
            assert check_universal_exhaustive(a1, a2, field) == reference_sweep(a1, a2, field), (a1, a2)

    # the sweep reads classes off Cayley-Hamilton and walks X2 on the
    # field's tables: it makes no square set and no subtraction, and the
    # hooks are called only to build the tables
    @pytest.mark.parametrize("field", [GF5, GF7, GF9], ids=["GF5", "GF7", "GF9"])
    def test_sweep_builds_no_square_set(self, monkeypatch, field):
        def refused(*args):
            raise AssertionError("the sweep built a square set")

        monkeypatch.setattr(m2forms.oracle, "build_square_set", refused)
        calls = {"_add": 0, "_mul": 0, "_neg": 0, "_sub": 0}
        for name in calls:
            def counted(*args, name=name, hook=getattr(field, name)):
                calls[name] += 1
                return hook(*args)

            monkeypatch.setattr(field, name, counted)  # fields are interned: undone at teardown
        m2forms.oracle._TABLES.pop(field, None)
        last = list(field.elements())[-1]
        for a2 in (field(1), last):
            assert check_universal_exhaustive(1, a2, field) == (True, None)
            assert check_universal_exhaustive(a2, 0, field)[0] is False
        q = field.order
        assert calls.pop("_sub") == 0
        assert all(0 < n <= q * q for n in calls.values()), calls

    def test_missed_scalar_class_is_reported(self, monkeypatch):
        # No real form misses a scalar and nothing earlier (a nonzero
        # term's trace-0 squares give every scalar), so a class set that
        # lacks the nonzero scalars stands in for a2's.
        def stand_in(tables, k, zero):
            return {(zero,)} | set(itertools.product(tables.payloads, repeat=2))

        monkeypatch.setattr(m2forms.oracle, "_square_classes", stand_in)
        assert check_universal_exhaustive(1, 0, GF3) == (False, Mat2.identity(GF3))

    # the closed form against the classes of every square set, q <= 9
    @pytest.mark.parametrize("field", FIELDS[:7], ids=FIELD_IDS[:7])
    def test_square_classes_match_square_sets(self, field):
        tables, zero = m2forms.oracle._tables(field), field.zero().payload

        def similarity_class(m11, m12, m21, m22):  # on the field's own hooks
            if m12 == m21 == zero and m11 == m22:
                return (m11,)
            return field._add(m11, m22), field._sub(field._mul(m11, m22), field._mul(m12, m21))

        for a in field.elements():
            expected = {similarity_class(*v) for v in build_square_set(field, a).members}
            assert m2forms.oracle._square_classes(tables, a.payload, zero) == expected, a


class TestPayloadKeys:
    """Square sets are keyed by payload 4-tuples, which repeat across fields."""

    def test_build_and_members_make_no_matrix(self, mat2_inits):
        squares = build_square_set(GF9, 1)
        assert len(squares.members) == 2381 and squares.members == squares._first.keys()
        assert mat2_inits == []

    def test_matrix_over_another_field_with_member_payloads(self):
        squares = build_square_set(GF7, 1)
        assert len(squares.members) == 865
        for payloads in squares.members:
            member = squares._matrix(payloads)
            twin = Mat2(*(FieldElement(GF8, p) for p in payloads))
            assert member in squares
            assert twin not in squares, member

    @pytest.mark.parametrize("other", [0, None, "[[0,0],[0,0]]"], ids=["int", "None", "str"])
    def test_non_matrix_not_in(self, other):
        zero = (0, 0, 0, 0)  # payload 4-tuple of the zero matrix over GF(2)
        for squares in (
            build_square_set(GF2, 1),
            build_square_set(GF7, 0),
            build_square_set(GF9, 1),
            SquareSet(GF2, GF2(0), {zero: zero}),
        ):
            assert other not in squares

    def test_square_set_over_another_field_rebuilt(self):
        foreign = build_square_set(GF3, 1)
        for target in list(all_matrices(GF4))[::8]:
            expected = representable_two_term(1, 1, target, GF4)
            assert representable_two_term(1, 1, target, GF4, square_set=foreign) == expected
            assert expected[1].field is GF4


@pytest.fixture
def square_calls(monkeypatch):
    """Counts Mat2.square calls made after the fixture is set up."""
    calls = []
    square = Mat2.square

    def counted(self):
        calls.append(self)
        return square(self)

    monkeypatch.setattr(Mat2, "square", counted)
    return calls


@pytest.fixture
def mat2_inits(monkeypatch):
    """Counts Mat2 constructions made after the fixture is set up."""
    calls = []
    init = Mat2.__init__

    def counted(self, *entries):
        calls.append(entries)
        init(self, *entries)

    monkeypatch.setattr(Mat2, "__init__", counted)
    return calls


class TestOneTermAsTwoTerm:
    """A one-term form a answers exactly as the two-term form a, 0."""

    # every coefficient and every target: a query is one square-set lookup
    @pytest.mark.parametrize("field", [GF2, GF3, GF4, GF5], ids=["GF2", "GF3", "GF4", "GF5"])
    def test_first_solution_is_first_preimage(self, field):
        for a in field.elements():
            first = {}
            for x in all_matrices(field):
                first.setdefault(x.square().scale(a), x)
            for target in all_matrices(field):
                expected = (first[target],) if target in first else None
                assert first_solution([a], target, field) == expected, (a, target)

    @pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
    def test_first_unrepresentable_is_first_miss(self, field):
        for a in field.elements():
            squares = build_square_set(field, a)
            expected = next(m for m in all_matrices(field) if m not in squares)
            assert first_unrepresentable([a], field) == expected, a

    def test_zero_coefficient_set_needs_no_squaring(self, square_calls):
        squares = build_square_set(GF16, 0)
        matrix = squares._matrix
        assert {matrix(v): matrix(x) for v, x in squares._first.items()} == {
            Mat2.zero(GF16): Mat2.zero(GF16)}
        assert square_calls == []

    # a zero term is the zero matrix, so X1 = 0 is the only X1 tried: a hit
    # makes X1 = 0 and its answer, a miss makes no Mat2, and nothing is squared
    @pytest.mark.parametrize(
        "coeffs, target, answer",
        [
            ([1], "[[0,0],[0,0]]", ["[[0,0],[0,0]]"]),
            ([1], "[[1,0],[0,1]]", ["[[0,1],[1,0]]"]),
            ([1], "[[0,1],[0,0]]", None),
            ([1, 0], "[[1,0],[0,1]]", ["[[0,1],[1,0]]", "[[0,0],[0,0]]"]),
            ([1, 0], "[[0,1],[0,0]]", None),
            ([0, 1], "[[1,0],[0,1]]", ["[[0,0],[0,0]]", "[[0,1],[1,0]]"]),
            ([0, 1], "[[0,1],[0,0]]", None),
            ([0, 0], "[[0,0],[0,0]]", ["[[0,0],[0,0]]", "[[0,0],[0,0]]"]),
            ([0, 0], "[[1,0],[0,1]]", None),
        ],
        ids=["1-zero", "1-identity", "1-nilpotent", "1,0-identity", "1,0-nilpotent",
             "0,1-identity", "0,1-nilpotent", "0,0-zero", "0,0-identity"],
    )
    def test_zero_term_query_makes_only_x1_and_its_answer(
        self, mat2_inits, square_calls, coeffs, target, answer
    ):
        target = Mat2.parse(GF16, target)
        mat2_inits.clear()
        found = first_solution(coeffs, target, GF16)
        assert len(mat2_inits) == (0 if answer is None else 2)
        assert square_calls == []
        assert (found and [str(x) for x in found]) == answer

    def test_target_over_another_field(self):
        with pytest.raises(FieldMismatchError):
            first_solution([1], Mat2.zero(GF5), GF3)
        with pytest.raises(FieldMismatchError):
            first_solution([1, 1], Mat2.zero(GF5), GF3)

    def test_empty_form_refused(self):
        with pytest.raises(ValueError, match="^a form needs at least one coefficient$"):
            first_solution([], Mat2.zero(GF3), GF3)
        with pytest.raises(ValueError, match="^a form needs at least one coefficient$"):
            first_unrepresentable([], GF3)

    def test_sweep_bound_is_named(self):
        # one bound for square sets, queries and sweeps
        bound = r"^GF\(17\) has order 17, above the bound 16$"
        with pytest.raises(FieldTooLargeError, match=bound):
            check_universal_exhaustive(1, 1, PrimeField(17))
        with pytest.raises(FieldTooLargeError, match=bound):
            first_unrepresentable([1], PrimeField(17))
        with pytest.raises(FieldTooLargeError, match=bound):
            first_solution([1, 0], Mat2.zero(PrimeField(17)), PrimeField(17))
