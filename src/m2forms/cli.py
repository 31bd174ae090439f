"""Command-line interface over the solver, deciders, and oracle.

Subcommands:

  decompose       solve sum(ai * Xi^2) == target constructively
  verify          re-evaluate a claimed solution against a target
  universal       decide universality of a form over its field
  universal-z     decide universality over the 2x2 integer matrices
  oracle          brute-force representability over small finite fields
  counterexample  show the GF(2)(x) failure of the counting criterion

Exit codes are stable: 0 for success or a Universal verdict, 2 for a
negative verdict or an unsolvable target, 3 for malformed input, 4 when
a resource bound (field enumeration limits) is exceeded.

With --json each command prints a single JSON object instead of text.
Matrices and elements appear as strings in the same grammar the parser
accepts, so emitted output can be fed back in unchanged.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections.abc import Sequence

# main's except clauses need only .errors; each command imports the modules it
# runs, so one process loads only those
from .errors import (
    FieldTooLargeError,
    InfiniteFieldError,
    NotASquareError,
    NotUniversalFormError,
    ParseError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_PARSE = 3
EXIT_LIMIT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; reserve 2 for negative verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="m2forms", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, field=True, coeffs=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if field:
            p.add_argument("--field", required=True, help="Q | GF(p) | GF(p^k)[;modulus=...] | F2(X)")
        if coeffs:
            p.add_argument("--coeffs", required=True, help="comma-separated coefficients")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        return p

    p = add("decompose", "solve sum(ai*Xi^2) == target")
    p.add_argument("--target", required=True, help="target matrix [[a,b],[c,d]]")

    p = add("verify", "evaluate a claimed solution against a target")
    p.add_argument("--target", required=True, help="target matrix [[a,b],[c,d]]")
    p.add_argument("--matrices", required=True, nargs="+", help="one matrix per coefficient")

    add("universal", "decide universality over the chosen field")

    add("universal-z", "decide universality over 2x2 integer matrices", field=False)

    p = add("oracle", "exhaustive representability over a small finite field")
    p.add_argument("--target", help="check one target instead of sweeping all")

    add("counterexample", "demonstrate the GF(2)(x) counterexample", field=False, coeffs=False)

    return parser


def _parse_int_coeffs(text: str) -> list[int]:
    parts = [part.strip() for part in text.split(",")]
    try:
        # ASCII digits only: int() also takes '_' separators and other scripts' digits
        if all(re.fullmatch("[+-]?[0-9]+", part) for part in parts):
            return [int(part) for part in parts]
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError("expected an integer coefficient", text, 0)


def _request(args, check=None):
    """The form, the target (None without --target) and their JSON echo.

    Parses --field, then --coeffs, which ``check`` vets, then --target.
    """
    from .fields import field_from_string

    field = field_from_string(args.field)
    # after the field parses, like each handler's imports: a bad descriptor exits 3 first
    from .matrices import DiagonalForm, Mat2

    parts = args.coeffs.split(",")
    if any(not part.strip() for part in parts):
        raise ParseError("empty coefficient", args.coeffs, 0)
    form = DiagonalForm(field, [field.parse(part) for part in parts])
    if check is not None:
        check(form.coeffs)
    echo = {"field": str(field), "coeffs": [str(c) for c in form.coeffs]}
    target = getattr(args, "target", None)
    if target is not None:
        target = Mat2.parse(field, target)
        echo["target"] = str(target)
    return form, target, echo


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _matrix_lines(matrices) -> list[str]:
    return [f"X{i + 1} = {m}" for i, m in enumerate(matrices)]


def _cmd_decompose(args) -> int:
    form, target, base = _request(args)
    from .solver import decompose

    try:
        result = decompose(form, target)
    except NotUniversalFormError as exc:
        _emit(
            args,
            [f"NotUniversalForm: {exc}", f"witness: {exc.witness}"],
            base | {"error": "NotUniversalForm", "message": str(exc), "witness": str(exc.witness)},
        )
        return EXIT_NEGATIVE
    except NotASquareError as exc:
        _emit(
            args,
            [f"NotASquare({exc.element})"],
            base | {"error": "NotASquare", "element": str(exc.element)},
        )
        return EXIT_NEGATIVE
    lines = [*_matrix_lines(result.matrices), "check: OK"]
    _emit(args, lines, base | {"matrices": [str(m) for m in result.matrices], "verified": True})
    return EXIT_OK


def _cmd_verify(args) -> int:
    form, target, echo = _request(args)
    from .matrices import Mat2

    matrices = [Mat2.parse(form.field, text) for text in args.matrices]
    value = form.evaluate(matrices)
    verified = value == target
    lines = ["check: OK"] if verified else ["check: FAIL", f"value: {value}"]
    _emit(
        args,
        lines,
        echo | {"matrices": [str(m) for m in matrices], "value": str(value), "verified": verified},
    )
    return EXIT_OK if verified else EXIT_NEGATIVE


def _cmd_universal(args) -> int:
    form, _, echo = _request(args)
    from .universality import UNIVERSAL, decide_universality

    verdict = decide_universality(form)
    if verdict.status == UNIVERSAL:
        lines = ["Universal"]
    elif verdict.witness is not None:
        lines = ["NotUniversal", f"witness: {verdict.witness}"]
    else:
        lines = [f"Undecided ({verdict.reason})"]
    witness = None if verdict.witness is None else str(verdict.witness)
    _emit(args, lines, echo | {"status": verdict.status, "witness": witness, "reason": verdict.reason})
    return EXIT_OK if verdict.status == UNIVERSAL else EXIT_NEGATIVE


def _cmd_universal_z(args) -> int:
    from .integer_forms import lee_criterion

    coeffs = _parse_int_coeffs(args.coeffs)
    universal = lee_criterion(coeffs)
    _emit(
        args,
        ["Universal" if universal else "NotUniversal"],
        {"coeffs": coeffs, "universal": universal},
    )
    return EXIT_OK if universal else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    from .oracle import check_term_count, first_solution, first_unrepresentable

    # terms before the target: too many terms is exit 4 whatever the target is
    form, target, base = _request(args, check_term_count)
    if target is not None:
        found = first_solution(form.coeffs, target, form.field)
        if found is None:
            _emit(args, ["unrepresentable"], base | {"representable": False, "matrices": None})
            return EXIT_NEGATIVE
        lines = [*_matrix_lines(found), "representable"]
        _emit(args, lines, base | {"representable": True, "matrices": [str(m) for m in found]})
        return EXIT_OK

    counterexample = first_unrepresentable(form.coeffs, form.field)
    universal = counterexample is None
    total = form.field.order**4
    base |= {"targets": total, "universal": universal}
    if universal:
        _emit(args, [f"all {total} targets representable"], base | {"counterexample": None})
        return EXIT_OK
    _emit(
        args,
        [f"not universal; first unrepresentable target: {counterexample}"],
        base | {"counterexample": str(counterexample)},
    )
    return EXIT_NEGATIVE


def _cmd_counterexample(args) -> int:
    from .solver import decompose
    from .universality import f2x_counterexample, f2x_necessary_condition

    form, target = f2x_counterexample()
    trace_sum = target.trace()
    try:
        decompose(form, target)
    except NotASquareError as exc:
        failing = str(exc.element)
    else:  # pragma: no cover - would mean the solver overclaimed
        raise AssertionError("decompose unexpectedly succeeded on the counterexample")
    lines = [
        f"field: {form.field}",
        f"form: X1^2 + X2^2 over {form.field}",
        f"target: {target}",
        f"trace sum {trace_sum} is not a square, so no solution exists",
        f"decompose: NotASquare({failing})",
        "the two-nonzero-coefficient criterion requires a perfect field",
    ]
    payload = {
        "field": str(form.field),
        "coeffs": [str(c) for c in form.coeffs],
        "target": str(target),
        "trace_sum": str(trace_sum),
        "trace_sum_is_square": f2x_necessary_condition(target),
        "decompose_error": f"NotASquare({failing})",
    }
    _emit(args, lines, payload)
    return EXIT_OK


_HANDLERS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "universal": _cmd_universal,
    "universal-z": _cmd_universal_z,
    "oracle": _cmd_oracle,
    "counterexample": _cmd_counterexample,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        _report_error(args, "ParseError", str(exc))
        return EXIT_PARSE
    except (FieldTooLargeError, InfiniteFieldError) as exc:
        _report_error(args, type(exc).__name__.removesuffix("Error"), str(exc))
        return EXIT_LIMIT
    except ValueError as exc:
        # remaining ValueErrors (arity, field mismatch, bad modulus) are
        # malformed requests, same class as parse failures
        _report_error(args, "BadRequest", str(exc))
        return EXIT_PARSE


def _report_error(args, kind: str, message: str) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps({"error": kind, "message": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
