"""The four end-to-end workloads and their correctness gates.

Each workload is a closed loop in this one process and thread: the next
call starts when the previous one returns (cli-oneshot waits for each
subprocess before starting the next).  Calls run in batches of about
BATCH_NS; the host's speed is measured just before and just after every
batch, and the batch's timings are scaled by it (see measure.py).  After each round
the gate re-checks every answer outside the timer; a wrong answer raises
WrongAnswer.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from measure import Calibrator, Samples, StartupClock
from tracing import Tracer, solver_spans

BENCH_DIR = Path(__file__).resolve().parent
BATCH_NS = 20_000_000  # calls between two host-speed references
SETUP_REPEATS = 7

COUNTEREXAMPLE_GOLDEN = (
    "field: F2(X)\n"
    "form: X1^2 + X2^2 over F2(X)\n"
    "target: [[x,0],[0,0]]\n"
    "trace sum x is not a square, so no solution exists\n"
    "decompose: NotASquare(x)\n"
    "the two-nonzero-coefficient criterion requires a perfect field\n"
)

# field descriptors each workload constructs, for setup_s
SETUP_FIELDS = {
    "decompose-small": list(inputs.SMALL_FAMILIES.values()),
    "decompose-bignum": ["Q", "F2(X)"],
    "oracle-crosscheck": list(inputs.ORACLE_FIELDS.values()),
    "cli-oneshot": ["Q"],
}
SETUP_MODULE = {"cli-oneshot": "m2forms.cli"}


class WrongAnswer(Exception):
    """The program returned an answer the gate proved wrong."""


class Outcome:
    """What a workload loop measured so far; filled in as it runs, so a
    run cut short by a wrong answer still reports its counts."""

    def __init__(self):
        self.plain = Samples()
        self.traced = Samples()
        self.rounds: list[float] = []  # scaled ns per complete round
        self.rounds_raw: list[int] = []


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def field_spec(descriptor: str) -> str:
    """A descriptor in child.py's field notation."""
    if descriptor in inputs.FINITE:
        return "%d,%d" % inputs.FINITE[descriptor]
    return descriptor


def make_field(descriptor: str):
    """The field for a descriptor, built with the class constructors.

    ``field_from_string`` is not used: it factors the order by trial
    division and does not return for GF(2^61-1) (ROADMAP item 3).
    """
    import m2forms

    from child import make_field as make

    return make(m2forms, field_spec(descriptor))


def run_child(root: Path, module: str, descriptors) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), module, *map(field_spec, descriptors)],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout)


def setup_seconds(root: Path, workload: str) -> tuple[float, float]:
    """Median (scaled, raw) seconds to import m2forms and build the
    workload's fields, each in a fresh interpreter (one warm-up first),
    scaled by the bare interpreter starts around it."""
    module = SETUP_MODULE.get(workload, "m2forms")
    clock = StartupClock(child_env(root), root)
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        before = clock.factor()
        r = run_child(root, module, SETUP_FIELDS[workload])
        factor = (before + clock.factor()) / 2
        ns = r["import_ns"] + sum(r["field_ns"])
        if i:
            raw.append(ns / 1e9)
            scaled.append(ns / 1e9 / factor)
    return statistics.median(scaled), statistics.median(raw)


# ------------------------------------------------------------ in-process loop


def _batch(items, start, call, samples: Samples, cal: Calibrator, tracer, name, offset):
    """Call items[start:] until BATCH_NS have passed; returns (results,
    next index).  Latencies are keyed by offset + index and scaled by the
    mean of the host factors taken just before and just after the batch."""
    before = cal.factor()
    pc = time.perf_counter_ns
    begin = pc()
    done, times = [], []
    i = start
    while i < len(items) and pc() - begin < BATCH_NS:
        item = items[i]
        i += 1
        t0 = pc()
        if tracer is None:
            result = call(item)
        else:
            span = tracer.begin(name)
            try:
                result = call(item)
            finally:
                tracer.end(span)
        times.append(pc() - t0)
        done.append((item, result))
    factor = (before + cal.factor()) / 2
    for key, ns, (_, result) in zip(range(offset + start, offset + i), times, done):
        samples.add(key, ns, factor, result is not None)
    return done, i


class Loop:
    """Closed-loop call stream with a measured-time budget.

    In traced mode batches alternate: even batches run untraced, odd
    batches with a span around every call (and ``context`` entered), so
    the two sample sets see the same inputs and the same host.
    """

    def __init__(self, seconds: float, cal: Calibrator, tracer: Tracer | None = None):
        self.budget = seconds * 1e9
        self.measured = 0
        self.cal = cal
        self.tracer = tracer
        self.batches = 0

    @property
    def expired(self) -> bool:
        return self.measured >= self.budget

    def stream(self, items, call, plain: Samples, traced: Samples, name: str,
               context=contextlib.nullcontext, offset=0, finish=False):
        """One pass over ``items``, cut short when the budget runs out
        unless ``finish``; ``offset`` is the index of items[0] in the
        workload's inputs."""
        done = []
        i = 0
        while i < len(items) and (finish or not self.expired):
            use_trace = self.tracer is not None and self.batches % 2 == 1
            self.batches += 1
            t0 = time.perf_counter_ns()
            if use_trace:
                with context(self.tracer):
                    batch, i = _batch(items, i, call, traced, self.cal, self.tracer, name, offset)
            else:
                batch, i = _batch(items, i, call, plain, self.cal, None, name, offset)
            self.measured += time.perf_counter_ns() - t0
            done += batch
        return done


# ------------------------------------------------------------------ decompose


def load_forms(cases):
    """(family, form, target) per case; targets are the form's value at
    the case's matrices, or the case's explicit target."""
    from m2forms import DiagonalForm, Mat2

    fields = {}
    out = []
    for case in cases:
        if case.descriptor not in fields:
            fields[case.descriptor] = make_field(case.descriptor)
        field = fields[case.descriptor]
        form = DiagonalForm(field, [field.parse(c) for c in case.coeffs])
        if case.xs:
            target = form.evaluate([Mat2.parse(field, x) for x in case.xs])
        else:
            target = Mat2.parse(field, case.target)
        out.append((case.family, form, target))
    return out


def decompose_call(may_fail=frozenset()):
    """decompose(form, target); NotASquareError is "could not construct"
    (None) for families in ``may_fail`` and a wrong answer elsewhere."""
    from m2forms import NotASquareError, decompose

    def call(item):
        family, form, target = item
        try:
            return decompose(form, target)
        except NotASquareError as exc:
            if family in may_fail:
                return None
            raise WrongAnswer(f"{family}: decompose({form}, {target}) raised {exc!r}") from exc

    return call


def gate_decompositions(done):
    for (family, form, target), result in done:
        if result is None:
            continue
        if len(result.matrices) != len(form) or form.evaluate(result.matrices) != target:
            raise WrongAnswer(f"{family}: decomposition of {target} under {form} is wrong")


def _busy(out: Outcome):
    return out.plain.busy_scaled + out.traced.busy_scaled, out.plain.busy_raw + out.traced.busy_raw


def run_decompose(items, loop: Loop, out: Outcome, may_fail=frozenset()):
    """Rounds over ``items``; the first round always completes, so every
    input is tried in every run."""
    call = decompose_call(may_fail)
    first = True
    while first or not loop.expired:
        scaled, raw = _busy(out)
        done = loop.stream(items, call, out.plain, out.traced, "decompose", solver_spans,
                           finish=first)
        first = False
        if len(done) == len(items):
            scaled_now, raw_now = _busy(out)
            out.rounds.append(scaled_now - scaled)
            out.rounds_raw.append(raw_now - raw)
        gate_decompositions(done)


# --------------------------------------------------------------------- oracle


def load_oracle(oi: inputs.OracleInputs):
    from m2forms import Mat2

    fields = {q: make_field(desc) for q, desc in inputs.ORACLE_FIELDS.items()}
    sweep = {q: tuple(fields[q].parse(t) for t in oi.sweep[q]) for q in inputs.SWEEP_QS}
    build = {q: fields[q].parse(oi.build[q]) for q in inputs.QUERY_QS}
    queries = [(q, fields[q].parse(a1), Mat2.parse(fields[q], t)) for q, a1, t in oi.queries]
    return fields, sweep, build, queries


def crosscheck_pass(fields, sweep, build, cal: Calibrator, tracer: Tracer | None):
    """Two-term sweeps and single-term sets for q <= 5, then the q in
    {7, 8, 9} square sets the queries reuse.  Returns (scaled ns, raw ns,
    square sets); raises WrongAnswer on a wrong verdict."""
    from m2forms import Mat2, build_square_set, check_universal_exhaustive

    scaled = raw = 0
    sets = {}
    steps = [("sweep", q) for q in inputs.SWEEP_QS] + [("single", q) for q in inputs.SWEEP_QS]
    steps += [("build", q) for q in inputs.QUERY_QS]
    for kind, q in steps:
        field = fields[q]
        if kind == "sweep":
            fn, args = check_universal_exhaustive, (sweep[q][0], sweep[q][1], field)
        else:
            fn, args = build_square_set, (field, sweep[q][2] if kind == "single" else build[q])
        span = tracer.begin(f"oracle.{kind}") if tracer else None
        result, dt, factor = cal.timed(fn, *args)
        if span:
            tracer.end(span)
        if kind == "build":
            sets[q] = result
        scaled += dt / factor
        raw += dt
        if kind == "sweep" and result != (True, None):
            raise WrongAnswer(f"GF({q}) sweep of {sweep[q][:2]} reported {result}")
        if kind == "single" and Mat2.of(field, [[0, 1], [0, 0]]) in result:
            raise WrongAnswer(f"nilpotent found in the GF({q}) square set of {sweep[q][2]}")
    return scaled, raw, sets


def query_call(fields, build, sets):
    from m2forms import representable_two_term

    def call(item):
        q, a1, target = item
        found = representable_two_term(a1, build[q], target, fields[q], square_set=sets[q])
        if found is None:
            raise WrongAnswer(f"GF({q}): {target} reported unrepresentable by {a1}, {build[q]}")
        return found

    return call


def gate_queries(done, build):
    from m2forms import DiagonalForm

    for (q, a1, target), (x1, x2) in done:
        if DiagonalForm(target.field, [a1, build[q]]).evaluate([x1, x2]) != target:
            raise WrongAnswer(f"GF({q}): oracle pair for {target} does not evaluate to it")


def run_oracle(loaded, loop: Loop, out: Outcome):
    """Rounds of one crosscheck pass and the next QUERY_WINDOW queries."""
    fields, sweep, build, queries = loaded
    start = 0
    while not loop.expired:
        use_trace = loop.tracer is not None and len(out.rounds) % 2 == 1
        t0 = time.perf_counter_ns()
        scaled, raw, sets = crosscheck_pass(fields, sweep, build, loop.cal,
                                            loop.tracer if use_trace else None)
        loop.measured += time.perf_counter_ns() - t0
        out.rounds.append(scaled)
        out.rounds_raw.append(raw)
        call = query_call(fields, build, sets)
        window = queries[start:start + inputs.QUERY_WINDOW]
        done = loop.stream(window, call, out.plain, out.traced, "oracle.query", offset=start)
        gate_queries(done, build)
        start = (start + inputs.QUERY_WINDOW) % len(queries)


# ------------------------------------------------------------------------ cli


def load_cli(cases):
    """Complete the seeded argv with targets the package computes, and
    attach what each check needs."""
    from m2forms import DiagonalForm, Mat2

    out = []
    for case in cases:
        argv = list(case.argv)
        check = None
        if case.form is not None:
            field = make_field(case.form.descriptor)
            form = DiagonalForm(field, [field.parse(c) for c in case.form.coeffs])
            if case.kind in ("decompose", "verify"):
                xs = [Mat2.parse(field, x) for x in case.form.xs]
                target = form.evaluate(xs)
                argv += ["--target", str(target)]
                if case.kind == "verify":
                    argv += ["--matrices", *(str(x) for x in xs)]
            else:
                target = Mat2.parse(field, case.form.target)
            check = (field, form, target)
        out.append((case, argv, check))
    return out


EXPECTED = {
    "verify": (0, "check: OK\n"),
    "universal": (0, "Universal\n"),
    "not-universal": (2, "NotUniversal\nwitness: [[0,1],[0,0]]\n"),
    "lee-yes": (0, "Universal\n"),
    "lee-no": (2, "NotUniversal\n"),
    "oracle-unrepresentable": (2, "unrepresentable\n"),
    "counterexample": (0, COUNTEREXAMPLE_GOLDEN),
    "malformed": (3, ""),
}


def expected_code(case) -> int:
    return EXPECTED[case.kind][0] if case.kind in EXPECTED else 0


def _matrices_then(lines, last, field, count):
    from m2forms import Mat2

    if len(lines) != count + 1 or lines[-1] != last:
        return None
    mats = []
    for i, line in enumerate(lines[:-1]):
        prefix = f"X{i + 1} = "
        if not line.startswith(prefix):
            return None
        mats.append(Mat2.parse(field, line[len(prefix):]))
    return mats


def gate_cli(done):
    """Exit code and stdout against the golden, or for decompose and a
    representable oracle query, against an exact re-evaluation."""
    for (case, argv, check), (code, out, err) in done:
        where = f"m2forms {' '.join(argv)}"
        if "Traceback" in err:
            raise WrongAnswer(f"{where}: traceback on stderr:\n{err}")
        if code != expected_code(case):
            raise WrongAnswer(f"{where}: exit {code}, expected {expected_code(case)}")
        if case.kind in EXPECTED:
            if out != EXPECTED[case.kind][1]:
                raise WrongAnswer(f"{where}: stdout {out!r}, expected {EXPECTED[case.kind][1]!r}")
            if case.kind == "malformed" and not err.startswith("error:"):
                raise WrongAnswer(f"{where}: no error message on stderr")
            continue
        field, form, target = check
        lines = out.splitlines()
        if case.kind == "decompose":
            mats = _matrices_then(lines, "check: OK", field, len(form))
        else:
            mats = _matrices_then(lines, "representable", field, 2)
        if mats is None or form.evaluate(mats) != target:
            raise WrongAnswer(f"{where}: stdout {out!r} is not a solution")


def cli_call(root: Path):
    env = child_env(root)

    def call(item):
        _, argv, _ = item
        proc = subprocess.run([sys.executable, "-m", "m2forms", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    return call


def run_cli(loaded, loop: Loop, out: Outcome, root: Path):
    """Rounds of the fixed mix, one subprocess at a time, scaled by the
    bare interpreter starts between them (see measure.StartupClock)."""
    call = cli_call(root)
    loop.cal = StartupClock(child_env(root), root)
    per_round = len(inputs.CLI_COMMANDS) + 1
    while not loop.expired:
        for r in range(0, len(loaded), per_round):
            scaled, raw = _busy(out)
            done = loop.stream(loaded[r:r + per_round], call, out.plain, out.traced, "cli", offset=r)
            if len(done) == per_round:
                scaled_now, raw_now = _busy(out)
                out.rounds.append(scaled_now - scaled)
                out.rounds_raw.append(raw_now - raw)
            out.plain.failed += sum(code != expected_code(case)
                                    for (case, _, _), (code, _, _) in done)
            gate_cli(done)
            if loop.expired:
                break
