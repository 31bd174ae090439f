"""Command-line behavior: output, exit codes, JSON round-trips."""

import json
import subprocess
import sys

import pytest

from m2forms import Mat2, field_from_string
from m2forms.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_golden_rational(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "Q", "--coeffs", "2,1",
            "--target", "[[1/5,2],[0,-1]]",
        )
        assert code == 0
        assert out.splitlines() == [
            "X1 = [[4/5,1],[0,1/5]]",
            "X2 = [[0,-27/25],[1,0]]",
            "check: OK",
        ]

    def test_char2(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "GF(2)", "--coeffs", "1,1",
            "--target", "[[0,1],[0,0]]",
        )
        assert code == 0
        assert "check: OK" in out

    def test_non_perfect_failure(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "F2(X)", "--coeffs", "1,1",
            "--target", "[[x,0],[0,0]]",
        )
        assert code == 2
        assert "NotASquare(x)" in out

    @pytest.mark.parametrize(
        "coeffs, target, x1",
        [("1,1", "[[x,0],[0,x]]", "[[0,1],[x,0]]"), ("x,1", "[[1,0],[0,1]]", "[[0,1],[(1)/(x),0]]")],
    )
    def test_non_perfect_scalar_target(self, capsys, coeffs, target, x1):
        argv = ["--field", "F2(X)", "--coeffs", coeffs, "--target", target]
        code, out, _ = run(capsys, "decompose", *argv)
        assert code == 0
        assert out.splitlines() == [f"X1 = {x1}", "X2 = [[0,0],[0,0]]", "check: OK"]
        code, out, _ = run(capsys, "verify", *argv, "--matrices", x1, "[[0,0],[0,0]]")
        assert (code, out) == (0, "check: OK\n")

    def test_single_term_refused(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "GF(5)", "--coeffs", "7",
            "--target", "[[0,0],[0,0]]",
        )
        assert code == 2
        assert "NotUniversalForm" in out
        assert "[[0,1],[0,0]]" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "GF(9)", "--coeffs", "t,2",
            "--target", "[[t+1,2],[t,2*t]]", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        field = field_from_string(payload["field"])
        target = Mat2.parse(field, payload["target"])
        matrices = [Mat2.parse(field, text) for text in payload["matrices"]]
        total = Mat2.zero(field)
        for coeff, m in zip(payload["coeffs"], matrices):
            total = total + m.square().scale(field.parse(coeff))
        assert total == target

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--field", "Q", "--coeffs", "2,1",
            "--target", "[[junk]]",
        )
        assert code == 3
        assert "error" in err

    def test_bad_field_exit_code(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--field", "GF(6)", "--coeffs", "1,1",
            "--target", "[[0,0],[0,0]]",
        )
        assert code == 3

    def test_overlong_rational_is_a_parse_error(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "Q", "--coeffs", "1,1",
            "--target", f"[[{'1' * 5000},0],[0,1]]", "--json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("too many digits (at position 2 in '[[111")

    def test_json_error_payload(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--field", "Q", "--coeffs", "", "--target",
            "[[0,0],[0,0]]", "--json",
        )
        assert code == 3
        assert json.loads(out)["error"] == "ParseError"

    # the library decomposes both targets, but X2 holds a 4,401-digit entry
    # over Q and x^8188 over F2(X): past what str() renders or Mat2.parse reads
    TOO_LARGE = [
        ("Q", f"[[{'9' * 2200},1],[1,{'9' * 2200}/7]]"),
        ("F2(X)", "[[x^4096,x^4095],[x^4093,1]]"),
    ]
    TOO_LARGE_MESSAGE = (
        "answer too large to print: X2 holds a number or exponent past the matrix reader's bounds"
    )

    @pytest.mark.parametrize("field, target", TOO_LARGE, ids=["Q", "F2X"])
    def test_answer_too_large_to_print(self, capsys, field, target):
        argv = ["decompose", "--field", field, "--coeffs", "1,1", "--target", target]
        assert run(capsys, *argv) == (4, "", f"error: {self.TOO_LARGE_MESSAGE}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"error": "AnswerTooLarge", "message": self.TOO_LARGE_MESSAGE}


class TestVerify:
    def test_accepts_correct_solution(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--field", "Q", "--coeffs", "2,1",
            "--target", "[[1/5,2],[0,-1]]",
            "--matrices", "[[4/5,1],[0,1/5]]", "[[0,-27/25],[1,0]]",
        )
        assert code == 0
        assert "check: OK" in out

    def test_rejects_wrong_solution(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--field", "Q", "--coeffs", "2,1",
            "--target", "[[1/5,2],[0,-1]]",
            "--matrices", "[[1,0],[0,1]]", "[[0,0],[0,0]]",
        )
        assert code == 2
        assert "check: FAIL" in out
        assert "value:" in out

    # past what the readers take back: Q's 5,000-digit entry passes Python's int-to-str
    # limit, F2(X)'s x^8192 the exponent bound 4,096; the check still fails
    TOO_LARGE = [("Q", f"[[{'9' * 2500},0],[0,0]]"), ("F2(X)", "[[x^4096,0],[0,0]]")]

    @pytest.mark.parametrize("field, matrix", TOO_LARGE, ids=["Q", "F2X"])
    def test_value_too_large_to_print(self, capsys, field, matrix):
        argv = ["verify", "--field", field, "--coeffs", "1", "--target", "[[0,0],[0,0]]",
                "--matrices", matrix]
        assert run(capsys, *argv) == (2, "check: FAIL\nvalue: too large to print\n", "")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert (payload["value"], payload["verified"]) == (None, False)
        assert payload["matrices"] == [matrix]

    def test_large_prime_answer_verifies_as_printed(self, capsys):
        # the odd construction divides by 2*a1, a1 and a2 through PrimeField._inv
        argv = ["--field", "GF(2305843009213693951)", "--coeffs", "3,-5",
                "--target", "[[12345678901234567,2],[-1,987654321]]"]
        code, out, _ = run(capsys, "decompose", *argv)
        assert (code, out.splitlines()[-1]) == (0, "check: OK")
        printed = [line.split(" = ")[1] for line in out.splitlines()[:-1]]
        assert run(capsys, "verify", *argv, "--matrices", *printed) == (0, "check: OK\n", "")
        code, out, _ = run(capsys, "decompose", *argv, "--json")
        assert (code, json.loads(out)["matrices"]) == (0, printed)
        code, out, err = run(capsys, "verify", *argv, "--matrices", *printed, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["verified"] is True

    def test_arity_mismatch_is_a_bad_request(self, capsys):
        code, _, err = run(
            capsys, "verify", "--field", "Q", "--coeffs", "2,1",
            "--target", "[[0,0],[0,0]]", "--matrices", "[[0,0],[0,0]]",
        )
        assert code == 3


class TestUniversal:
    def test_universal(self, capsys):
        code, out, _ = run(capsys, "universal", "--field", "Q", "--coeffs", "0,5,7")
        assert code == 0
        assert out.strip() == "Universal"

    def test_not_universal_with_witness(self, capsys):
        code, out, _ = run(capsys, "universal", "--field", "GF(3)", "--coeffs", "2")
        assert code == 2
        assert "NotUniversal" in out
        assert "[[0,1],[0,0]]" in out

    def test_undecided(self, capsys):
        code, out, _ = run(capsys, "universal", "--field", "F2(X)", "--coeffs", "1,1")
        assert code == 2
        assert "Undecided" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "universal", "--field", "F2(X)", "--coeffs", "1,1", "--json"
        )
        payload = json.loads(out)
        assert payload["status"] == "undecided"
        assert payload["reason"] == "non-perfect-field"


class TestUniversalZ:
    def test_universal(self, capsys):
        code, out, _ = run(capsys, "universal-z", "--coeffs", "1,1,1")
        assert code == 0
        assert out.strip() == "Universal"

    def test_not_universal(self, capsys):
        code, out, _ = run(capsys, "universal-z", "--coeffs", "1,1")
        assert code == 2
        assert out.strip() == "NotUniversal"

    def test_negative_coefficients(self, capsys):
        code, out, _ = run(capsys, "universal-z", "--coeffs=-1,1,1")
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "universal-z", "--coeffs", "2,2,3", "--json")
        assert code == 2
        assert json.loads(out) == {"coeffs": [2, 2, 3], "universal": False}

    def test_non_integer_rejected(self, capsys):
        code, _, err = run(capsys, "universal-z", "--coeffs", "1,x")
        assert code == 3

    def test_sign_apart_from_its_digits(self, capsys):
        # the token rule of the Q and GF(p) readers: '- 3' is -3, '1 2' is no integer
        assert run(capsys, "universal-z", "--coeffs", "1,1,- 3")[:2] == (0, "Universal\n")
        assert run(capsys, "universal-z", "--coeffs", "+ 2,-\t2")[:2] == (2, "NotUniversal\n")
        code, out, err = run(capsys, "universal-z", "--coeffs", "1,1 2,1")
        assert (code, out) == (3, "")
        assert err == "error: expected an integer coefficient (at position 2 in '1,1 2,1')\n"


class TestAsciiDigits:
    """Only ASCII 0-9 are digits: '_' separators, superscripts and other
    scripts' digits are malformed input (exit 3), never a number."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["universal-z", "--coeffs", "1_0,2,3"], "expected an integer coefficient"),
            (["universal-z", "--coeffs", "\u0661,2"], "expected an integer coefficient"),
            (["universal", "--field", "Q", "--coeffs", "1_0"], "expected [-]digits[/digits]"),
            (["universal", "--field", "GF(7)", "--coeffs", "\u0661,2"], "expected [-]digits"),
            (["universal", "--field", "GF(\u0667)", "--coeffs", "1,1"], "unrecognized field"),
            (["decompose", "--field", "GF(9)", "--coeffs", "1,\u00b2",
              "--target", "[[1,0],[0,1]]"], "expected a term"),
            (["decompose", "--field", "F2(X)", "--coeffs", "1,x^\u00b2",
              "--target", "[[1,0],[0,1]]"], "expected exponent digits"),
        ],
    )
    def test_non_ascii_digits_are_parse_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {message}") and "(at position " in err
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out)["error"] == "ParseError"

    def test_signed_and_padded_integers_still_accepted(self, capsys):
        assert run(capsys, "universal-z", "--coeffs", " +1 , 1,1 ")[:2] == (0, "Universal\n")
        assert run(capsys, "universal-z", "--coeffs=-1,-2")[:2] == (2, "NotUniversal\n")

    def test_overlong_integer_keeps_its_message(self, capsys):
        code, _, err = run(capsys, "universal-z", "--coeffs", "9" * 5000 + ",1")
        assert code == 3
        assert err.startswith("error: expected an integer coefficient")


class TestSignRule:
    """One leading '+' or '-' in every grammar; doubled or inner signs are
    malformed input (exit 3) with the grammar's usual message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["universal", "--field", "Q", "--coeffs", "+1,1"],
            ["universal", "--field", "GF(7)", "--coeffs", "+1,1"],
            ["universal", "--field", "Q", "--coeffs", "+1/2,1"],
        ],
    )
    def test_leading_plus_accepted(self, capsys, argv):
        assert run(capsys, *argv)[:2] == (0, "Universal\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["coeffs"][0] in ("1", "1/2")

    @pytest.mark.parametrize(
        "field, coeff, message",
        [("Q", "1/+2", "expected [-]digits[/digits]"), ("Q", "+-1", "expected [-]digits[/digits]"),
         ("Q", "++1", "expected [-]digits[/digits]"), ("GF(7)", "+-1", "expected [-]digits"),
         ("GF(7)", "++1", "expected [-]digits")],
    )
    def test_doubled_or_inner_signs_rejected(self, capsys, field, coeff, message):
        code, out, err = run(capsys, "universal", "--field", field, "--coeffs", f"{coeff},1")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message} ")


class TestOracle:
    def test_full_sweep_gf2(self, capsys):
        code, out, _ = run(capsys, "oracle", "--field", "GF(2)", "--coeffs", "1,1")
        assert code == 0
        assert "all 16 targets representable" in out

    def test_full_sweep_gf5(self, capsys):
        code, out, _ = run(capsys, "oracle", "--field", "GF(5)", "--coeffs", "2,3")
        assert code == 0
        assert "all 625 targets representable" in out

    def test_single_term_target_unrepresentable(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--field", "GF(3)", "--coeffs", "1",
            "--target", "[[0,1],[0,0]]",
        )
        assert code == 2
        assert "unrepresentable" in out

    def test_two_term_target_witness(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--field", "GF(2)", "--coeffs", "1,1",
            "--target", "[[0,1],[0,0]]", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["representable"] is True
        field = field_from_string(payload["field"])
        x1, x2 = (Mat2.parse(field, text) for text in payload["matrices"])
        assert x1.square() + x2.square() == Mat2.parse(field, payload["target"])

    def test_single_term_sweep_reports_counterexample(self, capsys):
        code, out, _ = run(capsys, "oracle", "--field", "GF(2)", "--coeffs", "1")
        assert code == 2
        assert "not universal" in out

    def test_sweep_bound_exit_code(self, capsys):
        code, _, err = run(capsys, "oracle", "--field", "GF(17)", "--coeffs", "1,1")
        assert code == 4

    def test_membership_allowed_up_to_16(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--field", "GF(9)", "--coeffs", "1",
            "--target", "[[0,0],[0,0]]",
        )
        assert code == 0
        assert "representable" in out

    def test_too_many_coefficients(self, capsys):
        code, _, err = run(capsys, "oracle", "--field", "GF(2)", "--coeffs", "1,1,1")
        assert code == 4

    def test_infinite_field_exit_code(self, capsys):
        code, _, err = run(capsys, "oracle", "--field", "Q", "--coeffs", "1,1")
        assert code == 4


BOUND = "GF(17) has order 17, above the bound 16"
TOO_MANY = "the oracle supports at most two coefficients"


class TestOracleExactOutput:
    """Full stdout, stderr and exit code of single-term queries and oracle errors."""

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["--field", "GF(2)", "--coeffs", "1"], 2,
                "not universal; first unrepresentable target: [[0,0],[1,0]]\n", "",
            ),
            (
                ["--field", "GF(2)", "--coeffs", "1", "--json"], 2,
                '{"field": "GF(2)", "coeffs": ["1"], "targets": 16, "universal": false, '
                '"counterexample": "[[0,0],[1,0]]"}\n', "",
            ),
            (
                ["--field", "GF(3)", "--coeffs", "1", "--target", "[[1,0],[0,1]]"], 0,
                "X1 = [[0,1],[1,0]]\nrepresentable\n", "",
            ),
            (
                ["--field", "GF(3)", "--coeffs", "1", "--target", "[[1,0],[0,1]]", "--json"], 0,
                '{"field": "GF(3)", "coeffs": ["1"], "target": "[[1,0],[0,1]]", '
                '"representable": true, "matrices": ["[[0,1],[1,0]]"]}\n', "",
            ),
            (["--field", "GF(17)", "--coeffs", "1,1"], 4, "", f"error: {BOUND}\n"),
            (["--field", "GF(17)", "--coeffs", "1"], 4, "", f"error: {BOUND}\n"),
            (
                ["--field", "GF(17)", "--coeffs", "1,1", "--json"], 4,
                f'{{"error": "FieldTooLarge", "message": "{BOUND}"}}\n', "",
            ),
            (["--field", "Q", "--coeffs", "1,1"], 4, "", "error: cannot enumerate matrices over Q\n"),
            (
                ["--field", "Q", "--coeffs", "1", "--json"], 4,
                '{"error": "InfiniteField", "message": "cannot enumerate matrices over Q"}\n', "",
            ),
            (
                ["--field", "F2(X)", "--coeffs", "1"], 4,
                "", "error: cannot enumerate matrices over F2(X)\n",
            ),
            (["--field", "GF(2)", "--coeffs", "1,1,1"], 4, "", f"error: {TOO_MANY}\n"),
            # the term count is checked before the target is parsed
            (
                ["--field", "GF(2)", "--coeffs", "1,1,1", "--target", "[[junk"], 4,
                "", f"error: {TOO_MANY}\n",
            ),
            (
                ["--field", "GF(2)", "--coeffs", "1,1,1", "--target", "[[junk", "--json"], 4,
                f'{{"error": "FieldTooLarge", "message": "{TOO_MANY}"}}\n', "",
            ),
            # a one-term query answers with the first preimage, here the first matrix
            (
                ["--field", "GF(2^4)", "--coeffs", "1", "--target", "[[0,0],[0,0]]"], 0,
                "X1 = [[0,0],[0,0]]\nrepresentable\n", "",
            ),
            # sweeps up to the bound 16, where they exited 4 above the old bound 5
            (["--field", "GF(7)", "--coeffs", "1,1"], 0, "all 2401 targets representable\n", ""),
            (
                ["--field", "GF(7)", "--coeffs", "1"], 2,
                "not universal; first unrepresentable target: [[0,0],[0,3]]\n", "",
            ),
        ],
    )
    def test_output(self, capsys, argv, code, out, err):
        assert run(capsys, "oracle", *argv) == (code, out, err)


GF6 = "6 is not a prime power (at position 0 in 'GF(6)')"


class TestErrorExactOutput:
    """Without --json an error is one ``error:`` line on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (
                ["verify", "--field", "Q", "--coeffs", "2,1", "--target", "[[0,0],[0,0]]",
                 "--matrices", "[[0,0],[0,0]]"], 3,
                "error: form has 2 coefficients but got 1 matrices\n",
            ),
            (
                ["decompose", "--field", "GF(6)", "--coeffs", "1,2", "--target", "[[1,2],[3,4]]"], 3,
                f"error: {GF6}\n",
            ),
            (
                ["oracle", "--field", "GF(6)", "--coeffs", "1,1", "--target", "[[1,2],[0,1]]"], 3,
                f"error: {GF6}\n",
            ),
            (
                ["universal", "--field", "GF(9);modulus=t^2+2", "--coeffs", "1,1"], 3,
                "error: modulus t^2+2 is reducible over GF(3) "
                "(at position 0 in 'GF(9);modulus=t^2+2')\n",
            ),
            (
                ["universal", "--field", "Q", "--coeffs", "1,,2"], 3,
                "error: empty coefficient (at position 2 in '1,,2')\n",
            ),
            (
                ["decompose", "--field", "Q", "--coeffs", "1,1", "--target", "[[1,2],[3"], 3,
                "error: expected ',' (at position 9 in '[[1,2],[3')\n",
            ),
            (
                ["verify", "--field", "GF(3)", "--coeffs", "1", "--target", "[[0,0],[0,0]]",
                 "--matrices", "[[0,0],[0,3/2]]"], 3,
                "error: expected [-]digits (at position 10 in '[[0,0],[0,3/2]]')\n",
            ),
            (
                ["universal-z", "--coeffs", "1,x"], 3,
                "error: expected an integer coefficient (at position 2 in '1,x')\n",
            ),
        ],
        ids=["BadRequest", "ParseError-field", "ParseError-oracle-field", "ParseError-modulus",
             "ParseError-coeffs", "ParseError-target", "ParseError-matrices", "ParseError-int"],
    )
    def test_output(self, capsys, argv, code, err):
        assert run(capsys, *argv) == (code, "", err)


class TestCounterexample:
    def test_narrative(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "F2(X)" in out
        assert "[[x,0],[0,0]]" in out
        assert "NotASquare(x)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--json")
        payload = json.loads(out)
        assert payload["trace_sum"] == "x"
        assert payload["trace_sum_is_square"] is False
        assert payload["decompose_error"] == "NotASquare(x)"


class TestEntryPoints:
    def test_missing_subcommand_exits_3(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 3

    def test_parser_is_built_once_and_reused_unchanged(self, capsys):
        assert build_parser() is build_parser()
        usage_error = ["decompose", "--field", "Q", "--coeffs", "1,1"]  # no --target
        outputs = []
        for argv in (usage_error, ["decompose", "--field", "Q", "--coeffs", "1,1",
                                   "--target", "[[1,2],[3,4]]", "--json"], usage_error):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[2]
        assert outputs[0][0] == 3 and "the following arguments are required: --target" in outputs[0][2]
        assert outputs[1][0] == 0 and json.loads(outputs[1][1])["matrices"]

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "m2forms", "decompose", "--field", "Q",
             "--coeffs", "2,1", "--target", "[[1/5,2],[0,-1]]"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "check: OK" in result.stdout
