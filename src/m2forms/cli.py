"""Command-line interface over the solver, deciders, and oracle.

Subcommands:

  decompose       solve sum(ai * Xi^2) == target constructively
  verify          re-evaluate a claimed solution against a target
  universal       decide universality of a form over its field
  universal-z     decide universality over the 2x2 integer matrices
  oracle          brute-force representability over finite fields, q <= 16
  counterexample  show the GF(2)(x) failure of the counting criterion

Exit codes are stable: 0 for success or a Universal verdict, 1 when the
answer could not be written (a full disk, say), 2 for a negative verdict
or an unsolvable target, 3 for malformed input, 4 when a resource bound
(the oracle's field order 16 or two terms) is exceeded or a decomposition
is too large for the readers to take back. A ``verify`` value that the
readers could not take back still fails its check with exit 2, and its
value is not printed.

Each handler returns ``(code, lines, payload)`` and ``main`` alone prints:
the lines, or with --json the payload as one JSON object. An error is an
``error: <message>`` line on stderr, or with --json an ``{"error": kind,
"message": ...}`` object on stdout. A closed stdout or stderr keeps the
exit code; any other failed write exits 1. Matrices and elements appear as
strings in the same grammar the parser accepts, so emitted output can be
fed back in unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
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
EXIT_UNWRITTEN = 1
EXIT_NEGATIVE = 2
EXIT_PARSE = 3
EXIT_LIMIT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; reserve 2 for negative verdicts
    def error(self, message):
        # a closed stderr still exits 3: 3.10's argparse lets its BrokenPipeError escape
        with contextlib.suppress(BrokenPipeError):
            sys.stderr.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_PARSE)

    def print_help(self, file=None):
        # argparse 3.11+ drops a failed write of the help; main maps it to an exit code
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


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


def _coeff_parts(text: str):
    """Each comma-separated part of --coeffs with its offset in ``text``."""
    pos = 0
    for part in text.split(","):
        yield pos, part
        pos += len(part) + 1


def _parse_int_coeffs(text: str) -> list[int]:
    coeffs = []
    for pos, part in _coeff_parts(text):
        try:
            # ASCII digits only: int() also takes '_' separators and other scripts' digits;
            # whitespace may stand between the sign and the digits, as in the field readers
            match = re.fullmatch(r"([+-]?)\s*([0-9]+)", part.strip())
            coeffs.append(int(match[1] + match[2]))
        except (TypeError, ValueError):  # no match, or more digits than int() converts
            raise ParseError("expected an integer coefficient", text, pos) from None
    return coeffs


def _request(args):
    """The form and its JSON echo. Parses --field, then --coeffs."""
    from .fields import FieldElement, _trim, field_from_string

    field = field_from_string(args.field)
    # after the field parses, like each handler's imports: a bad descriptor exits 3 first
    from .matrices import DiagonalForm

    text, parts = args.coeffs, list(_coeff_parts(args.coeffs))
    for pos, part in parts:
        if not part.strip():
            raise ParseError("empty coefficient", text, pos)
    # the reader takes each coefficient's span of the argument, trimmed
    spans = [_trim(text, pos, pos + len(part)) for pos, part in parts]
    form = DiagonalForm(field, [FieldElement(field, field._parse_payload(text, *s)) for s in spans])
    return form, {"field": str(field), "coeffs": [str(c) for c in form.coeffs]}


def _target(args, form, echo):
    """Parse --target over the form's field and add it to the JSON echo."""
    from .matrices import Mat2

    target = Mat2.parse(form.field, args.target)
    echo["target"] = str(target)
    return target


def _matrix_lines(matrices) -> list[str]:
    return [f"X{i + 1} = {m}" for i, m in enumerate(matrices)]


def _readable(field, matrix):
    """``str(matrix)`` if the matrix reader takes it back, else None."""
    from .matrices import Mat2

    try:
        text = str(matrix)
        Mat2.parse(field, text)
    except ValueError:  # str() stops past 4,300 digits, parse past x^4096
        return None
    return text


def _cmd_decompose(args):
    form, base = _request(args)
    target = _target(args, form, base)
    from .solver import decompose

    try:
        result = decompose(form, target)
    except NotUniversalFormError as exc:
        lines = [f"NotUniversalForm: {exc}", f"witness: {exc.witness}"]
        error = {"error": "NotUniversalForm", "message": str(exc), "witness": str(exc.witness)}
        return EXIT_NEGATIVE, lines, base | error
    except NotASquareError as exc:
        error = {"error": "NotASquare", "element": str(exc.element)}
        return EXIT_NEGATIVE, [f"NotASquare({exc.element})"], base | error
    # print only what the readers take back
    texts = []
    for i, matrix in enumerate(result.matrices):
        text = _readable(form.field, matrix)
        if text is None:
            message = (f"answer too large to print: X{i + 1} holds a number or exponent"
                       " past the matrix reader's bounds")
            return EXIT_LIMIT, None, {"error": "AnswerTooLarge", "message": message}
        texts.append(text)
    lines = [*_matrix_lines(texts), "check: OK"]
    return EXIT_OK, lines, base | {"matrices": texts, "verified": True}


def _cmd_verify(args):
    form, echo = _request(args)
    target = _target(args, form, echo)
    from .matrices import Mat2

    matrices = [Mat2.parse(form.field, text) for text in args.matrices]
    value = form.evaluate(matrices)
    verified = value == target
    # a value equal to the target was read once already; another is shown only if it reads back
    value_text = echo["target"] if verified else _readable(form.field, value)
    shown = "too large to print" if value_text is None else value_text
    lines = ["check: OK"] if verified else ["check: FAIL", f"value: {shown}"]
    echo |= {"matrices": [str(m) for m in matrices], "value": value_text, "verified": verified}
    return (EXIT_OK if verified else EXIT_NEGATIVE), lines, echo


def _cmd_universal(args):
    form, echo = _request(args)
    from .universality import UNIVERSAL, decide_universality

    verdict = decide_universality(form)
    if verdict.status == UNIVERSAL:
        lines = ["Universal"]
    elif verdict.witness is not None:
        lines = ["NotUniversal", f"witness: {verdict.witness}"]
    else:
        lines = [f"Undecided ({verdict.reason})"]
    witness = None if verdict.witness is None else str(verdict.witness)
    echo |= {"status": verdict.status, "witness": witness, "reason": verdict.reason}
    return (EXIT_OK if verdict.status == UNIVERSAL else EXIT_NEGATIVE), lines, echo


def _cmd_universal_z(args):
    from .integer_forms import lee_criterion

    coeffs = _parse_int_coeffs(args.coeffs)
    if lee_criterion(coeffs):
        return EXIT_OK, ["Universal"], {"coeffs": coeffs, "universal": True}
    return EXIT_NEGATIVE, ["NotUniversal"], {"coeffs": coeffs, "universal": False}


def _cmd_oracle(args):
    form, base = _request(args)
    from .oracle import check_term_count, first_solution, first_unrepresentable

    # terms before the target: too many terms is exit 4 whatever the target is
    check_term_count(form.coeffs)
    if args.target is not None:
        target = _target(args, form, base)
        found = first_solution(form.coeffs, target, form.field)
        if found is None:
            base |= {"representable": False, "matrices": None}
            return EXIT_NEGATIVE, ["unrepresentable"], base
        lines = [*_matrix_lines(found), "representable"]
        return EXIT_OK, lines, base | {"representable": True, "matrices": [str(m) for m in found]}

    counterexample = first_unrepresentable(form.coeffs, form.field)
    total = form.field.order**4
    base |= {"targets": total, "universal": counterexample is None}
    if counterexample is None:
        return EXIT_OK, [f"all {total} targets representable"], base | {"counterexample": None}
    lines = [f"not universal; first unrepresentable target: {counterexample}"]
    return EXIT_NEGATIVE, lines, base | {"counterexample": str(counterexample)}


def _cmd_counterexample(args):
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
    return EXIT_OK, lines, payload


_HANDLERS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "universal": _cmd_universal,
    "universal-z": _cmd_universal_z,
    "oracle": _cmd_oracle,
    "counterexample": _cmd_counterexample,
}


def main(argv: Sequence[str] | None = None) -> int:
    code = EXIT_OK  # --help, the only argparse output on stdout, exits 0
    try:
        args = build_parser().parse_args(argv)
        try:
            code, lines, payload = _HANDLERS[args.command](args)
        except (FieldTooLargeError, InfiniteFieldError) as exc:
            kind = type(exc).__name__.removesuffix("Error")
            code, lines, payload = EXIT_LIMIT, None, {"error": kind, "message": str(exc)}
        except ValueError as exc:
            # other ValueErrors (arity, field mismatch) are malformed requests, like parse failures
            kind = "ParseError" if isinstance(exc, ParseError) else "BadRequest"
            code, lines, payload = EXIT_PARSE, None, {"error": kind, "message": str(exc)}
        if args.json:
            import json

            print(json.dumps(payload))
        elif lines is None:
            print(f"error: {payload['message']}", file=sys.stderr)
        else:
            print("\n".join(lines))
    except BrokenPipeError:
        pass  # the reader closed stdout or stderr: the exit code stands
    except OSError:
        code = EXIT_UNWRITTEN  # a full disk, say: the answer is lost
    finally:
        # a stream that cannot be written gets devnull for what it still
        # buffers, so that the flush at interpreter exit is quiet too
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError as exc:
                if not isinstance(exc, BrokenPipeError):
                    code = EXIT_UNWRITTEN
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
