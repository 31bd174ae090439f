"""m2forms benchmark: one workload, one seed, plain or traced.

    python3 benchmarks/run.py --workload decompose-small --seed 1 --seconds 15 --trace 0

Run from the repository root; m2forms is imported from ./src.  Prints a
human-readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``;
``attempted`` and ``failed`` count inputs tried and inputs with a call
that did not complete.  Full results (and, when traced, the spans) go to benchmarks/out/.
Exits 1 if any answer is wrong and 2 if the sources are missing.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import inputs
import measure
import workloads
from measure import Calibrator
from tracing import ID, NAME, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "calls_per_s": "1/s", "p50_us": "us",
         "tail_us": "us", "round_s": "s"}

# each workload's own names for the generic end-to-end metrics, for the report
ALIASES = {
    "decompose-small": {"calls_per_s": "decompose_per_s", "p50_us": "decompose_p50_us",
                        "tail_us": "decompose_tail_us", "round_s": "pool_pass_s"},
    "decompose-bignum": {"calls_per_s": "decompose_per_s", "p50_us": "decompose_p50_us",
                         "tail_us": "decompose_tail_us", "round_s": "pool_pass_s"},
    "oracle-crosscheck": {"calls_per_s": "oracle_query_per_s", "p50_us": "oracle_query_p50_us",
                          "tail_us": "oracle_query_tail_us", "round_s": "crosscheck_s"},
    "cli-oneshot": {"calls_per_s": "cli_per_s", "p50_us": "cli_p50_ms",
                    "tail_us": "cli_tail_ms", "round_s": "cli_mix_s"},
}


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, loop: workloads.Loop, out: workloads.Outcome):
    if workload == "decompose-small":
        items = workloads.load_forms(inputs.small_cases(seed))
        workloads.run_decompose(items, loop, out)
    elif workload == "decompose-bignum":
        items = workloads.load_forms(inputs.big_cases(seed))
        workloads.run_decompose(items, loop, out, may_fail=frozenset({"f2x"}))
    elif workload == "oracle-crosscheck":
        workloads.run_oracle(workloads.load_oracle(inputs.oracle_inputs(seed)), loop, out)
    else:
        workloads.run_cli(workloads.load_cli(inputs.cli_cases(seed)), loop, out, ROOT)


def end_to_end(workload: str, out: workloads.Outcome, setup: float, scaled=True) -> dict:
    s = out.plain.summary(scaled)
    rounds = out.rounds if scaled else out.rounds_raw
    return {
        "setup_s": setup,
        "peak_rss_mb": measure.peak_rss_mb(children=workload == "cli-oneshot"),
        "calls_per_s": s["calls_per_s"],
        "p50_us": s["p50_us"],
        "tail_us": s["tail_us"],
        "round_s": statistics.median(rounds) / 1e9,
    }


def report_e2e(workload, metrics, raw, out: workloads.Outcome):
    s = out.plain.summary()
    alias = ALIASES[workload]
    ms = workload == "cli-oneshot"
    for name, value in metrics.items():
        shown, unit, scale = alias.get(name, name), UNITS[name], 1
        if ms and name in ("p50_us", "tail_us"):
            unit, scale = "ms", 1e-3
        extra = f"raw {raw[name] * scale:.6g}" if name != "peak_rss_mb" else ""
        if name == "tail_us":
            extra += f"; p{s['tail_pct']:.3f}, {s['tail_beyond']} of {s['inputs']} inputs beyond"
        if name == "p50_us":
            extra += f"; over {s['inputs']} inputs, {s['completed']} calls"
        if name == "round_s":
            extra += f"; median of {len(out.rounds)} rounds"
        print(f"  {shown:<22} {value * scale:>14.6g} {unit:<4} ({name}{'; ' + extra if extra else ''})")
    attempted, failed = out.plain.attempted, out.plain.failed
    tried, not_done = len(out.plain.tried), len(out.plain.not_done)
    print(f"  {'failed_frac':<22} {failed / attempted:>14.6g} {'':<4} ({failed} of {attempted} "
          f"calls; {not_done} of {tried} inputs not constructed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "m2forms" / "__init__.py").is_file():
        print(f"error: no m2forms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    # one CPU for this process and every child it starts, so that the
    # reference loop measures the CPU the measured code runs on
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    lines = inputs.render_lines(args.workload, args.seed)
    digest = inputs.digest(args.workload, args.seed)
    print(f"m2forms benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {len(lines)} lines, sha256 {digest}")
    sys.stdout.flush()

    setup, setup_raw = workloads.setup_seconds(ROOT, args.workload)
    import m2forms

    if Path(m2forms.__file__).resolve().parent != ROOT / "src" / "m2forms":
        print(f"error: imported m2forms from {m2forms.__file__}", file=sys.stderr)
        return 2

    cal = Calibrator()
    tracer = Tracer() if args.trace else None
    loop = workloads.Loop(args.seconds, cal, tracer)
    out = workloads.Outcome()
    correct, error = True, None
    try:
        run_workload(args.workload, args.seed, loop, out)
        if args.trace:
            from probes import Probes

            probes = Probes(ROOT, args.seed, cal, tracer)
            probes.run()
    except workloads.WrongAnswer as exc:
        correct, error = False, str(exc)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest, "env": env,
              "host_factor_median": loop.cal.median(), "correct": correct, "error": error}
    if not correct:
        print(f"WRONG ANSWER: {error}", file=sys.stderr)
        metrics = {}
    elif not args.trace:
        metrics = end_to_end(args.workload, out, setup)
        raw = end_to_end(args.workload, out, setup_raw, scaled=False)
        clock = "bare interpreter start" if args.workload == "cli-oneshot" else "reference loop"
        print(f"end-to-end (scaled to the reference speed; host factor by {clock}: median "
              f"{loop.cal.median():.3f} over {len(loop.cal.factors)} samples):")
        report_e2e(args.workload, metrics, raw, out)
        result["raw"] = raw
    else:
        metrics = trace_metrics(out, tracer, probes, result)
    # the result line counts inputs, not calls: how many calls fit in the
    # run varies with the host, while every decompose input is tried in
    # every run, so the counts of the decompose workloads depend only on
    # the inputs and the program
    attempted = len(out.plain.tried | out.traced.tried)
    failed = len(out.plain.not_done | out.traced.not_done)
    result.update(attempted=attempted, failed=failed, metrics=metrics,
                  calls_attempted=out.plain.attempted + out.traced.attempted,
                  calls_failed=out.plain.failed + out.traced.failed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json", {k: result[k] for k in ("workload", "seed")})
        print(f"spans: {len(tracer.spans)} written to {OUT_DIR / (stem + '-spans.json')}")

    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit("_", 1)[-1]
    return {"ns": "ns", "us": "us", "ms": "ms", "s": "s", "ratio": "ratio"}.get(suffix, "count")


def trace_metrics(out: workloads.Outcome, tracer: Tracer, probes, result) -> dict:
    plain, traced = out.plain.summary(), out.traced.summary()
    metrics = {
        "trace.untraced_p50_us": plain["p50_us"],
        "trace.traced_p50_us": traced["p50_us"],
        "trace.overhead_ratio": traced["p50_us"] / plain["p50_us"],
    }
    metrics.update(probes.metrics)
    print(f"tracing overhead: p50 {plain['p50_us']:.6g} us untraced, {traced['p50_us']:.6g} us "
          f"traced (x{metrics['trace.overhead_ratio']:.4f}); alternate batches, same inputs")
    own = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[NAME], []).append(own[span[ID]])
    print("self time of loop spans (median raw us): " + ", ".join(
        f"{name} {statistics.median(v) / 1e3:.4g}" for name, v in sorted(by_name.items())
        if not name.startswith("probe.")))
    print("solver wrapper self time, decompose minus solve and verify (median us): " + ", ".join(
        f"{fam} {v:.4g}" for fam, v in probes.self_us.items()))
    print("per-layer (scaled to the reference speed):")
    for name, value in probes.metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    result["self_us"] = probes.self_us
    return metrics


if __name__ == "__main__":
    sys.exit(main())
