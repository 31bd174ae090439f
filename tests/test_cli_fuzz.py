"""Seeded argv fuzz of the CLI: every request ends in a documented exit code.

About a thousand argvs mix all six commands, well-formed and malformed
field descriptors, coefficient lists and matrices, with and without
--json.  Each must return (or, for argparse usage errors, exit with) 0,
2, 3 or 4, let no exception escape ``cli.main`` and print no traceback.
Every ``decompose`` answer that exits 0, from the fuzz and from twenty
well-formed requests per field, goes back through ``verify`` as printed
and must exit 0 with ``check: OK``.  Another test puts each malformed
entry into each field: together they reach every message of the
polynomial reader, and the terms ``*t`` and ``2t``, outside the term
grammar, exit 3 in every field.  Another puts each malformed matrix
into each field: each exits 3, and together they reach every message of
the matrix reader, unbalanced parentheses included.  A last one pins one
request per reader message with whitespace around the fault: its error
quotes the whole argument as typed and points into it.
"""

import json
import random
import time

import pytest

from m2forms import ParseError
from m2forms.cli import _HANDLERS, build_parser, main

SEED = 20201
RUNS = 1000
ROUND_TRIPS = 20  # decompose requests per field whose answers go back through verify
BUDGET_S = 3.0
EXIT_CODES = {0, 2, 3, 4}

COMMANDS = ("decompose", "verify", "universal", "universal-z", "oracle", "counterexample")
RATIONAL = ("0", "1", "-1", "2", "+3", "1/2", "-7/3")
RESIDUE = ("0", "1", "-1", "2", "+3", "12")
POLY_T = ("0", "1", "2", "t", "t+1", "2*t+1", "t^2", "-t")
POLY_X = ("0", "1", "x", "x+1", "x^2+x", "(x)/(x+1)", "1/x")
MALFORMED = (
    "", "1/0", "t^", "*t", "+", "--1", "1_0", "٣", "(x", "x)", "t^99999", "9" * 5000,
    "[1]", "y", "1/2/3", "2*", "t*t", "t^0", "1+", "x^4097", "(x)+(1)", "1/(x", "x/", "2t",
)
# malformed in every field: a term is c, t, t^e, c*t or c*t^e, so neither
# a bare '*' nor a coefficient without one joins a coefficient to t
NO_TERM = ("*t", "2t")
# descriptor -> the entries its grammar accepts.  An oracle request over
# GF(25) or GF(2^8) stops at once at the order bound; GF(16) stays out, as
# a one-term oracle target over it scans 16^4 matrices.
FIELDS = {
    "Q": RATIONAL, "GF(2)": RESIDUE, "GF(3)": RESIDUE, "GF(5)": RESIDUE, "GF(7)": RESIDUE,
    "GF(4)": POLY_T, "GF(8)": POLY_T, "GF(9)": POLY_T, "GF(25)": POLY_T, "GF(27)": POLY_T,
    "GF(2^8);modulus=t^8+t^4+t^3+t+1": POLY_T, "F2(X)": POLY_X,
}
READER_MESSAGES = (
    "empty polynomial", "expected '+' or '-'", "too many digits", "expected exponent digits",
    "exponent too large", "expected 't' after '*'", "expected 'x' after '*'", "expected a term",
)
BAD_FIELDS = (
    "", "GF(6)", "GF(1)", "GF(0)", "GF(9", "gf(7)", "GF(2^0)", "GF(3^9)", "GF(2^64)",
    "GF(9);modulus=t^2+2", "GF(9);modulus=t^3+1", "GF(7);modulus=t+1", "F2(Y)", "R",
    "GF(" + "9" * 40 + ")",
)
BAD_MATRICES = (
    "", "[[1,2],[3]]", "[[1,2],[3,4]]]", "[1,2,3,4]", "[[,],[,]]", "[[1,2][3,4]]",
    "[[1,2],[3", "[[1,2],[3,4]", "[[x),0],[0,0]]", "[[1,(2],[3,4]]",
)
MATRIX_MESSAGES = (
    "expected '[['", "expected ','", "expected ']'", "expected ',['", "empty matrix entry",
    "trailing characters after matrix", "unbalanced ')'", "unbalanced '('",
)


def _entry(rng, entries):
    return rng.choice(MALFORMED if rng.random() < 0.03 else entries)


def _coeffs(rng, entries):
    if rng.random() < 0.05:
        return rng.choice(("", ",", "1,,2", " , ", "1,2,"))
    count = rng.choice((0, 1, 1, 2, 2, 2, 3, 3))
    return ",".join(_entry(rng, entries) for _ in range(count))


def _matrix(rng, entries):
    if rng.random() < 0.05:
        return rng.choice(BAD_MATRICES)
    return "[[{},{}],[{},{}]]".format(*(_entry(rng, entries) for _ in range(4)))


def _argv(rng):
    command = rng.choice(COMMANDS)
    argv = [command]
    if rng.random() < 0.1:
        field = rng.choice(BAD_FIELDS)
        entries = rng.choice(tuple(FIELDS.values()))
    else:
        field = rng.choice(tuple(FIELDS))
        entries = RESIDUE if command == "universal-z" else FIELDS[field]
    if command not in ("universal-z", "counterexample") or rng.random() < 0.1:
        argv += ["--field", field]
    if command != "counterexample" or rng.random() < 0.1:
        argv += ["--coeffs", _coeffs(rng, entries)]
    # an oracle target over GF(8) or GF(9) enumerates q^4 matrices, about
    # 0.1 s each, so few oracle requests carry one: the run stays in budget
    if command in ("decompose", "verify") or (command == "oracle" and rng.random() < 0.3):
        argv += ["--target", _matrix(rng, entries)]
    if command == "verify":
        argv += ["--matrices", *(_matrix(rng, entries) for _ in range(rng.randint(0, 3)))]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.05:  # drop a required option or add an unknown one
        if len(argv) > 2 and rng.random() < 0.5:
            del argv[1:3]
        else:
            argv.append("--bogus")
    return argv


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors exit 3
        return exc.code


def _verify_answer(capsys, argv, out):
    """Run ``verify`` on the matrices a successful ``decompose`` printed."""
    if "--json" in argv:
        matrices = json.loads(out)["matrices"]
    else:
        matrices = [line.partition(" = ")[2] for line in out.splitlines()[:-1]]
    request = [a for a in argv[1:] if a != "--json"]
    code = main(["verify", *request, "--matrices", *matrices])
    assert (code, capsys.readouterr().out) == (0, "check: OK\n"), argv


def test_seeded_argv_fuzz(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    for _ in range(RUNS):
        argv = _argv(rng)
        code = _run(argv)
        out, err = capsys.readouterr()
        assert code in EXIT_CODES, argv
        assert "Traceback" not in err, argv
        if argv[0] == "decompose" and code == 0:
            _verify_answer(capsys, argv, out)
    assert time.perf_counter() - start < BUDGET_S


def test_decompose_answers_verify_in_every_field(capsys):
    rng = random.Random(SEED)
    for field, entries in FIELDS.items():
        solved = 0
        for i in range(ROUND_TRIPS):
            coeffs = ",".join(rng.choice(entries) for _ in range(rng.randint(2, 4)))
            target = "[[{},{}],[{},{}]]".format(*(rng.choice(entries) for _ in range(4)))
            # '=' keeps a leading '-' from reading as an option
            argv = ["decompose", "--field", field, f"--coeffs={coeffs}", f"--target={target}"]
            argv += ["--json"] * (i % 2)
            code = main(argv)
            out = capsys.readouterr().out
            assert code in EXIT_CODES, argv
            if code == 0:
                _verify_answer(capsys, argv, out)
                solved += 1
        assert solved, field


def _message(err):
    return err.removeprefix("error: ").partition(" (at ")[0]


def test_malformed_entries_in_every_field(capsys):
    messages = set()
    for field in FIELDS:
        for entry in MALFORMED:
            code = main(["universal", "--field", field, "--coeffs", f"1,{entry}"])
            assert code == 3 if entry in NO_TERM else code in EXIT_CODES, (field, entry)
            messages.add(_message(capsys.readouterr().err))
    assert set(READER_MESSAGES) <= messages


def test_malformed_matrices_in_every_field(capsys):
    messages = set()
    for field in FIELDS:
        for matrix in BAD_MATRICES:
            code = main(["decompose", "--field", field, "--coeffs", "1,1", "--target", matrix])
            assert code == 3, (field, matrix)
            messages.add(_message(capsys.readouterr().err))
    assert set(MATRIX_MESSAGES) <= messages
    assert any(m.startswith("unexpected ") and m.endswith(" in entry") for m in messages)


# (field, option, argument, message, position in the argument); whitespace
# stands around each fault, and no whitespace splits a number
TYPED = [
    ("F2(X)", "--coeffs", "1, ( )", "empty polynomial", 5),
    ("GF(9)", "--coeffs", "1, 2 t", "expected '+' or '-'", 5),
    ("GF(9)", "--coeffs", "1,  " + "9" * 5000 + " ", "too many digits", 4),
    ("GF(9)", "--coeffs", "1, t ^ + 1", "expected exponent digits", 7),
    ("GF(9)", "--coeffs", "1, t ^ 99999", "exponent too large", 7),
    ("GF(9)", "--coeffs", "1, 2 * 5", "expected 't' after '*'", 7),
    ("F2(X)", "--coeffs", "1, 1 * 1", "expected 'x' after '*'", 7),
    ("GF(9)", "--coeffs", "1, - - t", "expected a term", 5),
    ("Q", "--coeffs", "1, 1 2", "expected [-]digits[/digits]", 3),
    ("Q", "--coeffs", "1, 3 / 0", "zero denominator", 7),
    ("GF(5)", "--coeffs", "1, - x", "expected [-]digits", 3),
    ("F2(X)", "--coeffs", "1, x / ( 0 )", "zero denominator", 7),
    ("F2(X)", "--coeffs", "1, x + 1 )", "unbalanced ')'", 9),
    ("F2(X)", "--coeffs", "1, ( x + 1 ", "unbalanced '('", 9),
    ("Q", "--coeffs", "1, ,2", "empty coefficient", 2),
    ("GF(3)", "--target", " [ 1 ]", "expected '[['", 1),
    ("GF(3)", "--target", "[[ 1 , 2 ] , [ 3 ", "expected ','", 16),
    ("GF(3)", "--target", "[[ 1 , 2 ] , [ 3 , 4 ", "expected ']'", 20),
    ("GF(3)", "--target", "[[ 1 , 2 ] [ 3 , 4 ] ]", "expected ',['", 11),
    ("GF(3)", "--target", "[[ 1 , ] , [ 3 , 4 ] ]", "empty matrix entry", 7),
    ("GF(3)", "--target", "[[ 1 , 2 ] , [ 3 , 4 ] ] x", "trailing characters after matrix", 25),
    ("GF(3)", "--target", "[[ 1 ] , [ 3 , 4 ] ]", "unexpected ']' in entry", 5),
    ("GF(3)", "--target", "[[ 1, 0 ], [ 0, 2) ]]", "unbalanced ')'", 17),
    ("GF(3)", "--target", "[[ 1, 0 ], [ 0, ( 2 ]] ", "unbalanced '('", 21),
    ("GF(9)", "--target", "[[1,t^],[0,1]]", "expected exponent digits", 6),
    ("GF(3)", "--matrices", "[[ 0, 0 ], [ 0, 3 / 2 ]]", "expected [-]digits", 16),
]


@pytest.mark.parametrize("field, option, argument, message, pos", TYPED,
                         ids=[f"{m}-{o}" for _, o, _, m, _ in TYPED])
def test_errors_point_into_the_argument_as_typed(field, option, argument, message, pos):
    argv = ["verify", "--field", field, "--coeffs", "1", "--target", "[[0,0],[0,0]]",
            "--matrices", "[[0,0],[0,0]]"]
    argv[argv.index(option) + 1] = argument
    args = build_parser().parse_args(argv)
    with pytest.raises(ParseError) as caught:
        _HANDLERS["verify"](args)
    err = caught.value
    assert (err.text, err.pos) == (argument, pos)
    assert str(err) == f"{message} (at position {pos} in {argument!r})"
