"""Seeded inputs for every workload, generated as text.

Nothing here imports m2forms: each input is drawn from its own
``random.Random`` and rendered in the package's element grammar, so the
same seed gives byte-identical inputs on any commit.  The sha256 digest of
the rendered inputs is printed with every run, which lets a parent run and
a change run be shown to use the same inputs.  The benchmark parses the
text with the package (outside the timer) and hands the program only the
parsed values.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("decompose-small", "decompose-bignum", "oracle-crosscheck", "cli-oneshot")

# family -> field descriptor; the solver layer is probed per family
SMALL_FAMILIES = {
    "q": "Q",
    "gf7": "GF(7)",
    "gfp61": "GF(2305843009213693951)",
    "gf8": "GF(2^3)",
    "gf9": "GF(3^2)",
    "gf16": "GF(2^4)",
    "gf25": "GF(5^2)",
}
BIG_FAMILIES = {"qbig": "Q", "f2x": "F2(X)"}

# (p, k) of each prime or extension field; Q and F2(X) are not listed
FINITE = {
    "GF(2)": (2, 1),
    "GF(3)": (3, 1),
    "GF(2^2)": (2, 2),
    "GF(5)": (5, 1),
    "GF(7)": (7, 1),
    "GF(2^3)": (2, 3),
    "GF(3^2)": (3, 2),
    "GF(2^4)": (2, 4),
    "GF(5^2)": (5, 2),
    "GF(2305843009213693951)": (2305843009213693951, 1),
}

# the oracle workload: q -> descriptor, sweeps for q <= 5, builds above
ORACLE_FIELDS = {
    2: "GF(2)",
    3: "GF(3)",
    4: "GF(2^2)",
    5: "GF(5)",
    7: "GF(7)",
    8: "GF(2^3)",
    9: "GF(3^2)",
}
SWEEP_QS = (2, 3, 4, 5)
QUERY_QS = (7, 8, 9)

SMALL_PER_FAMILY = 100
BIG_CASES = 400
QUERIES_PER_Q = 1000
QUERY_WINDOW = 1500  # queries per oracle round; rounds rotate through the pool
CLI_ROUNDS = 10

Q_SMALL_BOUND = 100  # numerators and denominators of "small fractions"
Q_BIG_DIGITS = 20  # exact digits of numerators and denominators: 40-digit entries
F2X_DEGREE = 8  # exact numerator and denominator degree of entries and coefficients

NILPOTENT = "[[0,1],[0,0]]"


# ---------------------------------------------------------------- rendering


def _term(coeff: int, exp: int, var: str) -> str:
    if exp == 0:
        return str(coeff)
    base = var if exp == 1 else f"{var}^{exp}"
    return base if coeff == 1 else f"{coeff}*{base}"


def render_poly(coeffs, var: str) -> str:
    """Ascending coefficients as text, highest degree first; '0' if empty."""
    terms = [_term(c, e, var) for e, c in reversed(list(enumerate(coeffs))) if c]
    return "+".join(terms) if terms else "0"


def render_bits(bits: int) -> str:
    """A packed GF(2)[x] polynomial as text in x."""
    return render_poly([(bits >> e) & 1 for e in range(bits.bit_length())], "x")


def parse_poly(text: str, var: str) -> list[int]:
    """Inverse of render_poly: ascending coefficients of polynomial text."""
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        coeff, _, power = term.partition(var)
        coeff = coeff.removesuffix("*")
        exp = 0 if term == coeff else int(power.removeprefix("^") or 1)
        coeffs[exp] = int(coeff or 1)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def parse_bits(text: str) -> int:
    """Inverse of render_bits."""
    return sum(c << e for e, c in enumerate(parse_poly(text, "x")))


def parse_quotient_bits(text: str) -> tuple[int, int]:
    """(num, den) bits of rendered GF(2)(x) text: ``p`` or ``(p)/(q)``."""
    if "/" not in text:
        return parse_bits(text), 1
    num, den = text.split("/")
    return parse_bits(num.strip("()")), parse_bits(den.strip("()"))


def render_matrix(entries) -> str:
    a, b, c, d = entries
    return f"[[{a},{b}],[{c},{d}]]"


def square_bits(bits: int) -> int:
    """The square of a packed GF(2)[x] polynomial (spreads exponents)."""
    out = 0
    for e in range(bits.bit_length()):
        if (bits >> e) & 1:
            out |= 1 << (2 * e)
    return out


# ------------------------------------------------------------------ drawing


def _fraction(rng: random.Random, bound: int) -> str:
    return f"{rng.randint(-bound, bound)}/{rng.randint(1, bound)}"


def _big_fraction(rng: random.Random, digits: int) -> str:
    low, high = 10 ** (digits - 1), 10**digits - 1
    return f"{rng.choice('-+').strip('+')}{rng.randint(low, high)}/{rng.randint(low, high)}"


def _is_zero(text: str) -> bool:
    return text == "0" or text.startswith("0/")


class ElementDraw:
    """Draws element text for one field descriptor."""

    def __init__(self, descriptor: str, q_digits: int | None = None):
        self.descriptor = descriptor
        self.q_digits = q_digits

    def any(self, rng: random.Random) -> str:
        if self.descriptor == "Q":
            if self.q_digits:
                return _big_fraction(rng, self.q_digits)
            return _fraction(rng, Q_SMALL_BOUND)
        if self.descriptor == "F2(X)":
            return _rational_function(rng, F2X_DEGREE)
        p, k = FINITE[self.descriptor]
        if k == 1:
            return str(rng.randrange(p))
        return render_poly([rng.randrange(p) for _ in range(k)], "t")

    def nonzero(self, rng: random.Random) -> str:
        while True:
            text = self.any(rng)
            if not _is_zero(text):
                return text

    def matrix(self, rng: random.Random) -> str:
        return render_matrix([self.any(rng) for _ in range(4)])


def _form_coeffs(draw: ElementDraw, rng: random.Random, m: int | None = None) -> list[str]:
    """Coefficients drawn like the acceptance gate's round trips: 2 to 4
    slots (``m`` if given), two of them forced nonzero."""
    m = m or rng.randint(2, 4)
    coeffs = [draw.any(rng) for _ in range(m)]
    for k in rng.sample(range(m), 2):
        if _is_zero(coeffs[k]):
            coeffs[k] = draw.nonzero(rng)
    return coeffs


def _rational_function(rng: random.Random, degree: int, square: bool = False) -> str:
    """Text of num/den, both of degree ``degree`` before reduction; with
    ``square``, the square of such a quotient of half the degree."""
    if square:
        degree //= 2
    num = rng.randrange(1 << degree, 1 << (degree + 1))
    den = rng.randrange(1 << degree, 1 << (degree + 1))
    if square:
        num, den = square_bits(num), square_bits(den)
    return f"({render_bits(num)})/({render_bits(den)})"


def _f2x_coeff(rng: random.Random, square: bool) -> str:
    return _rational_function(rng, F2X_DEGREE, square)


# -------------------------------------------------------------------- cases


@dataclass(frozen=True)
class FormCase:
    """A form with either explicit matrices X (target = form value at X)
    or an explicit target."""

    family: str
    descriptor: str
    coeffs: tuple[str, ...]
    xs: tuple[str, ...] = ()
    target: str = ""

    def render(self) -> str:
        return "|".join(
            (self.family, self.descriptor, ",".join(self.coeffs), " ".join(self.xs), self.target)
        )


@dataclass(frozen=True)
class OracleInputs:
    sweep: dict  # q -> (a1, a2, single-term coefficient)
    build: dict  # q -> a2, the coefficient whose square set queries reuse
    queries: tuple  # (q, a1, target)

    def render_lines(self):
        for q in SWEEP_QS:
            yield f"sweep|{q}|{'|'.join(self.sweep[q])}"
        for q in QUERY_QS:
            yield f"build|{q}|{self.build[q]}"
        for q, a1, target in self.queries:
            yield f"query|{q}|{a1}|{target}"


@dataclass(frozen=True)
class CliCase:
    """One m2forms invocation.  ``kind`` names how its output is checked;
    ``form`` carries the values a semantic check needs."""

    command: str
    kind: str
    argv: tuple[str, ...]
    form: FormCase | None = None

    def render(self) -> str:
        form = self.form.render() if self.form else ""
        return f"{self.kind}|" + "\x1f".join(self.argv) + f"|{form}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"m2forms-bench:{workload}:{seed}")


def small_cases(seed: int) -> list[FormCase]:
    """Forms over the seven small families, interleaved family by family."""
    rng = _rng("decompose-small", seed)
    draws = {fam: ElementDraw(desc) for fam, desc in SMALL_FAMILIES.items()}
    cases = []
    for _ in range(SMALL_PER_FAMILY):
        for fam, draw in draws.items():
            coeffs = _form_coeffs(draw, rng)
            xs = tuple(draw.matrix(rng) for _ in coeffs)
            cases.append(FormCase(fam, draw.descriptor, tuple(coeffs), xs))
    return cases


def big_cases(seed: int) -> list[FormCase]:
    """Half 40-digit rational targets; a quarter F2(X) forms with square
    coefficients, a quarter with arbitrary nonzero ones.  F2(X) targets
    are the form's value at matrices with degree-8 quotient entries, so
    every target is representable.

    The arbitrary-coefficient quarter is one fixed panel, the same for
    every seed: the solver fails on nearly all of it (ROADMAP item 1),
    and a fixed panel makes the number of failures a property of the
    program, not of the seed.
    """
    rng = _rng("decompose-bignum", seed)
    panel = _rng("decompose-bignum-panel", 0)
    qbig = ElementDraw("Q", Q_BIG_DIGITS)
    f2x = ElementDraw("F2(X)")
    cases = []
    for i in range(BIG_CASES):
        # 2, 3 and 4 coefficients equally often in each group: the cost of
        # a call grows with the count, and a random count would make the
        # mean cost differ from seed to seed
        m = 2 + (i // 4) % 3
        if i % 2 == 0:
            coeffs = _form_coeffs(qbig, rng, m)
            target = qbig.matrix(rng)
            cases.append(FormCase("qbig", "Q", tuple(coeffs), target=target))
        else:
            square = i % 4 == 1
            draw = rng if square else panel
            coeffs = tuple(_f2x_coeff(draw, square) for _ in range(m))
            xs = tuple(f2x.matrix(draw) for _ in range(m))
            cases.append(FormCase("f2x", "F2(X)", coeffs, xs))
    return cases


def oracle_inputs(seed: int) -> OracleInputs:
    rng = _rng("oracle-crosscheck", seed)
    draws = {q: ElementDraw(desc) for q, desc in ORACLE_FIELDS.items()}
    sweep = {
        q: (draws[q].nonzero(rng), draws[q].nonzero(rng), draws[q].nonzero(rng))
        for q in SWEEP_QS
    }
    build = {q: draws[q].nonzero(rng) for q in QUERY_QS}
    queries = []
    for _ in range(QUERIES_PER_Q):
        for q in QUERY_QS:
            queries.append((q, draws[q].nonzero(rng), draws[q].matrix(rng)))
    return OracleInputs(sweep, build, tuple(queries))


# Lee's criterion cases with known verdicts: leave-one-out gcds must all
# be 1 and at least three coefficients must not be multiples of 4
LEE_CASES = (
    ("1,1,1", True),
    ("1,2,3", True),
    ("3,5,7", True),
    ("1,1,1,4", True),
    ("2,3,5,6", True),
    ("-1,1,1", True),
    ("1,1", False),
    ("2,4,6", False),
    ("1,1,4", False),
    ("2,2,3", False),
)

MALFORMED = (
    ("decompose", "--field", "Q", "--coeffs", "1,2", "--target", "[[1,2],[3]]"),
    ("decompose", "--field", "GF(6)", "--coeffs", "1,2", "--target", "[[1,2],[3,4]]"),
    ("universal", "--field", "Q", "--coeffs", "1,,2"),
    ("verify", "--field", "GF(5)", "--coeffs", "1,2", "--target", "[[1,2],[3,4]]",
     "--matrices", "[[1,0],[0,1]]"),
)

CLI_COMMANDS = ("decompose", "verify", "universal", "universal-z", "oracle", "counterexample")


def cli_cases(seed: int) -> list[CliCase]:
    """CLI_ROUNDS rounds of the fixed mix: the six commands plus one
    malformed request, each with seeded arguments."""
    rng = _rng("cli-oneshot", seed)
    q = ElementDraw("Q")
    cases = []
    for _ in range(CLI_ROUNDS):
        coeffs = _form_coeffs(q, rng)
        form = FormCase("q", "Q", tuple(coeffs), tuple(q.matrix(rng) for _ in coeffs))
        cases.append(CliCase("decompose", "decompose", ("decompose", "--field", "Q", f"--coeffs={','.join(coeffs)}"), form))
        coeffs = _form_coeffs(q, rng)
        form = FormCase("q", "Q", tuple(coeffs), tuple(q.matrix(rng) for _ in coeffs))
        cases.append(CliCase("verify", "verify", ("verify", "--field", "Q", f"--coeffs={','.join(coeffs)}"), form))

        desc = rng.choice(("GF(3)", "GF(5)", "GF(2^3)", "GF(3^2)"))
        draw = ElementDraw(desc)
        if rng.random() < 0.5:
            coeffs = _form_coeffs(draw, rng)
            kind = "universal"
        else:
            coeffs = ["0"] * rng.randint(1, 3)
            coeffs[rng.randrange(len(coeffs))] = draw.nonzero(rng)
            kind = "not-universal"
        cases.append(CliCase("universal", kind, ("universal", "--field", desc, "--coeffs", ",".join(coeffs))))

        text, universal = rng.choice(LEE_CASES)
        cases.append(CliCase(
            "universal-z", "lee-yes" if universal else "lee-no", ("universal-z", f"--coeffs={text}")
        ))

        desc = rng.choice(("GF(2)", "GF(3)", "GF(2^2)", "GF(5)"))
        draw = ElementDraw(desc)
        if rng.random() < 0.5:
            coeffs = (draw.nonzero(rng), draw.nonzero(rng))
            target = draw.matrix(rng)
            form = FormCase("oracle", desc, coeffs, target=target)
            kind = "oracle-representable"
        else:
            coeffs = (draw.nonzero(rng),)
            target = NILPOTENT
            form = None
            kind = "oracle-unrepresentable"
        cases.append(CliCase(
            "oracle", kind,
            ("oracle", "--field", desc, "--coeffs", ",".join(coeffs), "--target", target), form,
        ))

        cases.append(CliCase("counterexample", "counterexample", ("counterexample",)))
        cases.append(CliCase("malformed", "malformed", rng.choice(MALFORMED)))
    return cases


def render_lines(workload: str, seed: int):
    """Every input of a workload as text lines, in generation order."""
    if workload == "decompose-small":
        return [c.render() for c in small_cases(seed)]
    if workload == "decompose-bignum":
        return [c.render() for c in big_cases(seed)]
    if workload == "oracle-crosscheck":
        return list(oracle_inputs(seed).render_lines())
    if workload == "cli-oneshot":
        return [c.render() for c in cli_cases(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, seed: int) -> str:
    """sha256 of the workload's rendered inputs."""
    text = "\n".join(render_lines(workload, seed))
    return hashlib.sha256(text.encode()).hexdigest()
