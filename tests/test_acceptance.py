"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion is a single test.  Results are written to the real stdout
so the lines survive pytest's capture and appear in piped output; the
per-test PASSED/FAILED verdicts mirror them.  All comparisons are exact
(canonical-form equality); the only tolerances are the stated runtime
budgets.
"""

import functools
import itertools
import random
import sys
import time

from m2forms import (
    DiagonalForm,
    ExtensionField,
    Mat2,
    NotASquareError,
    PrimeField,
    RationalFunctionField2,
    Rationals,
    build_square_set,
    check_universal_exhaustive,
    decompose,
    lee_criterion,
)
from m2forms.solver import decompose_pair_char2, decompose_pair_odd_char
from m2forms.universality import f2x_necessary_condition

Q = Rationals()
F2X = RationalFunctionField2()

SMALL_FIELDS = {
    2: PrimeField(2),
    3: PrimeField(3),
    4: ExtensionField(2, 2),
    5: PrimeField(5),
}


def _emit(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {description}"
    if detail:
        line += f" [{detail}]"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                detail = fn()
            except BaseException as exc:
                _emit(num, description, False, f"{type(exc).__name__}: {exc}")
                raise
            _emit(num, description, True, detail or "")

        return runner

    return wrap


def rand_nonzero(field, rng):
    while True:
        a = field.random_element(rng)
        if not a.is_zero():
            return a


def rand_matrix(field, rng):
    return Mat2(*(field.random_element(rng) for _ in range(4)))


def rand_form(field, rng, max_len=4):
    m = rng.randint(2, max_len)
    coeffs = [field.random_element(rng) for _ in range(m)]
    i, j = rng.sample(range(m), 2)
    for k in (i, j):
        if coeffs[k].is_zero():
            coeffs[k] = rand_nonzero(field, rng)
    return DiagonalForm(field, coeffs)


@criterion(1, "golden two-term decomposition over the rationals, exact, < 10 ms")
def test_criterion_1_golden_decomposition():
    target = Mat2.parse(Q, "[[1/5,2],[0,-1]]")
    a1, a2 = Q(2), Q(1)
    decompose_pair_odd_char(a1, a2, target)  # warm caches before timing
    started = time.perf_counter()
    x1, x2 = decompose_pair_odd_char(a1, a2, target)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert x1 == Mat2.parse(Q, "[[4/5,1],[0,1/5]]")
    assert x2 == Mat2.parse(Q, "[[0,-27/25],[1,0]]")
    form = DiagonalForm(Q, [a1, a2])
    assert form.evaluate([x1, x2]) == target
    assert elapsed_ms < 10.0
    return f"{elapsed_ms:.3f} ms"


@criterion(2, "1000 random decompose round-trips per field, exact, < 5 s total")
def test_criterion_2_round_trip_soundness():
    fields = [Q, PrimeField(5), PrimeField(7), ExtensionField(2, 3), ExtensionField(3, 2)]
    rng = random.Random(20260824)
    failures = 0
    started = time.perf_counter()
    for field in fields:
        for _ in range(1000):
            form = rand_form(field, rng)
            target = rand_matrix(field, rng)
            result = decompose(form, target)
            if form.evaluate(result.matrices) != target:
                failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 5.0
    return f"{len(fields) * 1000} instances, {failures} failures, {elapsed:.2f} s"


@criterion(3, "solver and oracle cover all q^4 targets for q in {2,3,4,5}, < 10 s per field")
def test_criterion_3_universality_desk_scale():
    rng = random.Random(3)
    checked_pairs = 0
    worst = 0.0
    for q, field in SMALL_FIELDS.items():
        units = [a for a in field.elements() if not a.is_zero()]
        if q <= 3:
            pairs = list(itertools.product(units, repeat=2))
        else:
            pairs = [(rng.choice(units), rng.choice(units)) for _ in range(10)]
        pair_solver = (
            decompose_pair_char2 if field.characteristic == 2 else decompose_pair_odd_char
        )
        started = time.perf_counter()
        for a1, a2 in pairs:
            ok, counterexample = check_universal_exhaustive(a1, a2, field)
            assert ok and counterexample is None
            elems = list(field.elements())
            for entries in itertools.product(elems, repeat=4):
                target = Mat2(*entries)
                x1, x2 = pair_solver(a1, a2, target)
                assert x1.square().scale(a1) + x2.square().scale(a2) == target
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        worst = max(worst, elapsed)
        checked_pairs += len(pairs)
    return f"{checked_pairs} coefficient pairs, worst field {worst:.2f} s"


@criterion(4, "[[0,1],[0,0]] is not a value of a*X^2 for any a != 0, q in {2,3,4,5}, < 5 s")
def test_criterion_4_single_term_non_universality():
    started = time.perf_counter()
    checked = 0
    for field in SMALL_FIELDS.values():
        witness = Mat2.of(field, [[0, 1], [0, 0]])
        for a in field.elements():
            if a.is_zero():
                continue
            assert witness not in build_square_set(field, a)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"{checked} coefficients, {elapsed:.2f} s"


@criterion(5, "sqrt is total and inverts squaring over GF(2^k), k <= 4, exhaustive")
def test_criterion_5_perfect_square_roots():
    checked = 0
    for k in (1, 2, 3, 4):
        field = PrimeField(2) if k == 1 else ExtensionField(2, k)
        for a in field.elements():
            r = a.sqrt()
            assert r * r == a
            assert (a * a).sqrt() == a
            checked += 1
    return f"{checked} elements"


@criterion(6, "over GF(2)(x): x has no root, the solver fails on [[x,0],[0,0]], condition false")
def test_criterion_6_non_perfect_counterexample():
    x = F2X.parse("x")
    assert x.is_square() is False
    target = Mat2.of(F2X, [["x", 0], [0, 0]])
    form = DiagonalForm(F2X, [1, 1])
    try:
        decompose(form, target)
    except NotASquareError as exc:
        assert exc.element == x
    else:
        raise AssertionError("decompose unexpectedly succeeded")
    assert f2x_necessary_condition(target) is False
    return "all three checks exact"


@criterion(7, "integer-matrix criterion table plus invariance on 100 random lists")
def test_criterion_7_lee_criterion():
    table = {
        (1, 1, 1): True,
        (1, 1): False,
        (2, 2, 3): False,
        (1, 2, 3): True,
        (4, 4, 4, 1, 1): False,
    }
    for coeffs, expected in table.items():
        assert lee_criterion(coeffs) is expected
    rng = random.Random(7)
    for _ in range(100):
        coeffs = [rng.randint(-15, 15) for _ in range(rng.randint(1, 6))]
        base = lee_criterion(coeffs)
        shuffled = coeffs[:]
        rng.shuffle(shuffled)
        assert lee_criterion(shuffled) is base
        assert lee_criterion([-c for c in coeffs]) is base
    return "5 table rows, 100 random lists"


@criterion(8, "field axioms, Cayley-Hamilton, transpose of squares: 500 samples per field")
def test_criterion_8_property_suites():
    fields = [
        Q,
        PrimeField(5),
        PrimeField(7),
        ExtensionField(2, 3),
        ExtensionField(3, 2),
        F2X,
    ]
    rng = random.Random(8)
    violations = 0
    for field in fields:
        zero, one = field.zero(), field.one()
        identity = Mat2.identity(field)
        for _ in range(500):
            a, b, c = (field.random_element(rng) for _ in range(3))
            checks = [
                a + b == b + a,
                (a + b) + c == a + (b + c),
                a + zero == a,
                a + (-a) == zero,
                a * b == b * a,
                (a * b) * c == a * (b * c),
                a * one == a,
                a * (b + c) == a * b + a * c,
            ]
            if not a.is_zero():
                checks.append(a * a.inv() == one)
            violations += checks.count(False)

            m = rand_matrix(field, rng)
            if m.square() != m.scale(m.trace()) - identity.scale(m.det()):
                violations += 1
            if m.transpose().square() != m.square().transpose():
                violations += 1
    assert violations == 0
    return f"{len(fields)} fields, 0 violations"
