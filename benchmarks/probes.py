"""Per-layer probes for the traced run.

Each probe times one layer on operands taken from the inputs of the
workload that owns the family (same seed), scaled like every other
timing (see measure.py).  Loop probes report the median per-operation
time of PROBE_REPEATS passes over the operands; per-operation figures
include the loop's own overhead of a few tens of ns, which cancels when
two layers are subtracted.  Every probe runs in every traced run, so the
set of per-layer metrics does not depend on the workload.
"""

from __future__ import annotations

import contextlib
import io
import operator
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import workloads
from measure import LONG_SAMPLES, REFERENCE_NS, Calibrator
from tracing import END, ID, NAME, START, Tracer, child_totals, self_times, solver_spans

PROBE_OPERANDS = 400
PROBE_REPEATS = 5
SOLVER_CALLS = 100
PROBE_QUERIES = 300  # per q
STARTUP_REPEATS = 5
INPROC_REPEATS = 10

# the package's default moduli, as ascending coefficient tuples
MODULI = {"gf8": (2, (1, 1, 0, 1)), "gf9": (3, (1, 0, 1)),
          "gf16": (2, (1, 1, 0, 0, 1)), "gf25": (5, (1, 1, 1))}
PRIMES = {"gf7": 7, "gfp61": 2305843009213693951}
FAMILIES = tuple(inputs.SMALL_FAMILIES) + tuple(inputs.BIG_FAMILIES)


def _per_op(operands, op, cal: Calibrator, unary=False) -> float:
    """Median scaled ns per call of ``op`` over ``operands``."""
    def unary_loop():
        for a in operands:
            op(a)

    def binary_loop():
        for a, b in operands:
            op(a, b)

    runs = []
    for _ in range(PROBE_REPEATS):
        _, ns, factor = cal.timed(unary_loop if unary else binary_loop)
        runs.append(ns / factor / len(operands))
    return statistics.median(runs)


def _pairs(values, nonzero_second=False):
    pairs = [(a, b) for a, b in zip(values, values[1:] + values[:1]) if not nonzero_second or b]
    return pairs[:PROBE_OPERANDS]


def _quiet_main(cli, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class Probes:
    def __init__(self, root: Path, seed: int, cal: Calibrator, tracer: Tracer):
        self.root, self.cal, self.tracer = root, cal, tracer
        self.metrics: dict[str, float] = {}
        forms = workloads.load_forms(inputs.small_cases(seed) + inputs.big_cases(seed))
        self.by_family: dict[str, list] = {fam: [] for fam in FAMILIES}
        for family, form, target in forms:
            self.by_family[family].append((family, form, target))
        self.oracle = workloads.load_oracle(inputs.oracle_inputs(seed))
        self.cli = workloads.load_cli(inputs.cli_cases(seed))
        self.self_us: dict[str, float] = {}

    def elements(self, family):
        """Target entries then coefficients, in input order."""
        out = [e for _, _, target in self.by_family[family] for e in target.entries()]
        out += [c for _, form, _ in self.by_family[family] for c in form.coeffs]
        return out[: PROBE_OPERANDS + 1]

    def run(self) -> dict[str, float]:
        for step in (self.fields, self.field_init, self.polys, self.gf2x, self.payload,
                     self.matrices, self.solver, self.oracle_layer, self.cli_layer):
            with self.tracer.span(f"probe.{step.__name__}"):
                step()
        return self.metrics

    def fields(self):
        m, cal = self.metrics, self.cal
        for fam in FAMILIES:
            elems = self.elements(fam)
            m[f"fields.{fam}.mul_ns"] = _per_op(_pairs(elems), operator.mul, cal)
            m[f"fields.{fam}.add_ns"] = _per_op(_pairs(elems), operator.add, cal)
            m[f"fields.{fam}.div_ns"] = _per_op(_pairs(elems, True), operator.truediv, cal)
        for fam in ("gf8", "gf16"):
            m[f"fields.{fam}.sqrt_ns"] = _per_op(self.elements(fam), operator.methodcaller("sqrt"),
                                                 cal, unary=True)
        squares = [e * e for e in self.elements("f2x")]
        m["fields.f2x.sqrt_ns"] = _per_op(squares, operator.methodcaller("sqrt"), cal, unary=True)

    def field_init(self):
        fams = list(MODULI)
        runs = [workloads.run_child(self.root, "m2forms", [inputs.SMALL_FAMILIES[f] for f in fams])
                for _ in range(3)]
        for i, fam in enumerate(fams):
            self.metrics[f"fields.{fam}.field_init_ms"] = statistics.median(
                r["field_ns"][i] * REFERENCE_NS / r["reference_ns"] / 1e6 for r in runs)

    def polys(self):
        from m2forms import polys

        for fam, (p, modulus) in MODULI.items():
            vals = [tuple(polys.normalize(inputs.parse_poly(str(e), "t"), p)) for e in self.elements(fam)]
            self.metrics[f"polys.{fam}.mulmod_ns"] = _per_op(
                _pairs(vals), lambda a, b: polys.mod(polys.mul(a, b, p), modulus, p), self.cal)
            self.metrics[f"polys.{fam}.invmod_ns"] = _per_op(
                [v for v in vals if v][:PROBE_OPERANDS], lambda a: polys.inv_mod(a, modulus, p),
                self.cal, unary=True)

    def gf2x(self):
        from m2forms import gf2x

        bits = [b for e in self.elements("f2x") for b in inputs.parse_quotient_bits(str(e)) if b != 1]
        self.metrics["gf2x.mul_ns"] = _per_op(_pairs(bits), gf2x.mul, self.cal)
        self.metrics["gf2x.gcd_ns"] = _per_op(_pairs(bits, True), gf2x.gcd, self.cal)

    def payload(self):
        m = self.metrics
        for fam in ("q", "qbig"):
            m[f"payload.{fam}.mul_ns"] = _per_op(
                _pairs([Fraction(str(e)) for e in self.elements(fam)]), operator.mul, self.cal)
        for fam, p in PRIMES.items():
            m[f"payload.{fam}.mul_ns"] = _per_op(
                _pairs([int(str(e)) for e in self.elements(fam)]), lambda a, b: a * b % p, self.cal)

    def matrices(self):
        from m2forms import Mat2

        m, cal = self.metrics, self.cal
        targets = {fam: [t for _, _, t in items][:PROBE_OPERANDS] for fam, items in self.by_family.items()}
        for fam in FAMILIES:
            m[f"matrices.{fam}.square_us"] = _per_op(
                targets[fam], operator.methodcaller("square"), cal, unary=True) / 1e3
        queries = self.oracle[3]
        hashed = {"gf7": targets["gf7"],
                  "gf8": [t for q, _, t in queries if q == 8][:PROBE_OPERANDS],
                  "gf9": [t for q, _, t in queries if q == 9][:PROBE_OPERANDS]}
        for fam, mats in hashed.items():
            m[f"matrices.{fam}.hash_ns"] = _per_op(mats, hash, cal, unary=True)
        oracle_fields = self.oracle[0]
        for fam, mats in (("q", targets["q"]), ("gf9", hashed["gf9"])):
            field = mats[0].field if fam == "q" else oracle_fields[9]
            texts = [str(t) for t in mats]
            m[f"matrices.{fam}.parse_us"] = _per_op(
                texts, lambda s, field=field: Mat2.parse(field, s), cal, unary=True) / 1e3
            m[f"matrices.{fam}.render_us"] = _per_op(mats, str, cal, unary=True) / 1e3

    def solver(self):
        """One decompose per input with ``solve`` and ``verify`` child
        spans inside it (see tracing.solver_spans)."""
        from m2forms import NotASquareError, decompose

        for fam in FAMILIES:
            tracer = Tracer()
            before = self.cal.factor()
            failed = 0
            with solver_spans(tracer):
                for _, form, target in self.by_family[fam][:SOLVER_CALLS]:
                    span = tracer.begin("decompose")
                    try:
                        decompose(form, target)
                    except NotASquareError:
                        failed += 1
                        span[NAME] = "decompose.not_constructed"
                    finally:
                        tracer.end(span)
            spans = tracer.spans
            us = 1e3 * (before + self.cal.factor()) / 2  # scaled ns per us
            done = [s for s in spans if s[NAME] == "decompose"]
            m = self.metrics
            m[f"solver.{fam}.decompose_us"] = statistics.median(s[END] - s[START] for s in done) / us
            m[f"solver.{fam}.solve_us"] = statistics.median(child_totals(spans, "decompose", "solve")) / us
            m[f"solver.{fam}.verify_us"] = statistics.median(child_totals(spans, "decompose", "verify")) / us
            own = self_times(spans)
            self.self_us[fam] = statistics.median(own[s[ID]] for s in done) / us
            if fam == "f2x":
                m["solver.f2x.not_constructed"] = failed
            elif failed:
                raise workloads.WrongAnswer(f"{fam}: {failed} decompositions not constructed")

    def oracle_layer(self):
        from m2forms import build_square_set, check_universal_exhaustive, representable_two_term

        fields, sweep, build, queries = self.oracle
        m, cal = self.metrics, self.cal
        sets = {}
        for q in inputs.SWEEP_QS + inputs.QUERY_QS:
            coeff = sweep[q][2] if q in sweep else build[q]
            sets[q], ns, factor = cal.timed(build_square_set, fields[q], coeff)
            m[f"oracle.q{q}.square_set_s"] = ns / factor / 1e9
        for q in inputs.SWEEP_QS:
            verdict, ns, factor = cal.timed(check_universal_exhaustive, sweep[q][0], sweep[q][1], fields[q])
            m[f"oracle.q{q}.sweep_s"] = ns / factor / 1e9
            if verdict != (True, None):
                raise workloads.WrongAnswer(f"GF({q}) sweep reported {verdict}")
        for q in inputs.QUERY_QS:
            field = fields[q]
            m[f"oracle.q{q}.distinct_squares"] = len(sets[q].members)
            index = {e: i for i, e in enumerate(field.elements())}
            times, scanned = [], []
            before = cal.factor(LONG_SAMPLES)
            for a1, target in [(a1, t) for qq, a1, t in queries if qq == q][:PROBE_QUERIES]:
                t0 = time.perf_counter_ns()
                x1, _ = representable_two_term(a1, build[q], target, field, square_set=sets[q])
                times.append(time.perf_counter_ns() - t0)
                position = 0
                for e in x1.entries():
                    position = position * q + index[e]
                scanned.append(position + 1)
            factor = (before + cal.factor(LONG_SAMPLES)) / 2
            m[f"oracle.q{q}.query_us"] = statistics.median(times) / factor / 1e3
            m[f"oracle.q{q}.query_scanned_mean"] = statistics.fmean(scanned)

    def cli_layer(self):
        from m2forms import cli

        m, cal = self.metrics, self.cal
        startup = []
        for _ in range(STARTUP_REPEATS):
            _, ns, factor = cal.timed(subprocess.run, [sys.executable, "-c", "pass"])
            startup.append(ns / factor)
        m["cli.python_startup_ms"] = statistics.median(startup) / 1e6
        runs = [workloads.run_child(self.root, "m2forms.cli", []) for _ in range(STARTUP_REPEATS)]
        m["cli.import_ms"] = statistics.median(
            r["import_ns"] * REFERENCE_NS / r["reference_ns"] / 1e6 for r in runs)
        for command in inputs.CLI_COMMANDS:
            argv = next(argv for case, argv, _ in self.cli if case.command == command)
            times = []
            for _ in range(INPROC_REPEATS):
                _, ns, factor = cal.timed(_quiet_main, cli, argv)
                times.append(ns / factor)
            m[f"cli.{command}.inproc_us"] = statistics.median(times) / 1e3
