"""Self-tests of the benchmark harness (not of m2forms).

    python3 -m pytest benchmarks/tests -q
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 100, 999, 1000, 12345])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = list(range(n))
    pct, value, beyond = measure.tail(values)
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert measure.percentile(values, pct) == value
    # any higher percentile leaves fewer than ten samples beyond it
    higher = measure.percentile(values, min(100.0, pct + 100 / n))
    assert sum(v > higher for v in values) < 10


def test_tail_of_a_thousand_is_p99():
    values = [float(i) for i in range(1000)]
    assert measure.tail(values) == (99.0, 989.0, 10)


def test_tail_without_enough_samples_reports_the_shortfall():
    assert measure.tail([3, 5, 8]) == (100.0, 8, 0)
    assert measure.tail(list(range(10))) == (100.0, 9, 0)


def test_percentile_is_nearest_rank():
    values = [10, 20, 30, 40]
    assert measure.percentile(values, 50) == 20
    assert measure.percentile(values, 51) == 30
    assert measure.percentile(values, 100) == 40


def test_samples_keep_failures_out_of_latency():
    s = measure.Samples()
    s.add("a", 1000, 1.0)
    s.add("b", 3000, 2.0)
    s.add("c", 500, 1.0, completed=False)
    assert (s.attempted, s.failed, s.completed) == (3, 1, 2)
    assert s.scaled == {"a": [1000.0], "b": [1500.0]}
    assert s.busy_scaled == 3000.0
    summary = s.summary()
    assert summary["inputs"] == 2
    assert summary["calls_per_s"] == pytest.approx(2 / 3e-6)


def test_samples_count_inputs_apart_from_calls():
    s = measure.Samples()
    for _ in range(3):
        s.add("a", 1000, 1.0)
        s.add("b", 1000, 1.0, completed=False)
    assert (s.attempted, s.failed) == (6, 3)
    assert (s.tried, s.not_done) == ({"a", "b"}, {"b"})


def test_percentiles_are_over_per_input_medians():
    s = measure.Samples()
    for ns in (100, 110, 5000):  # one slow call does not move input "a"
        s.add("a", ns, 1.0)
    for key in range(1, 12):
        s.add(key, 1000 * key, 1.0)
    summary = s.summary()
    assert summary["inputs"] == 12
    assert summary["p50_us"] == 5.0
    assert (summary["tail_us"], summary["tail_beyond"]) == (1.0, 10)


def span(id_, parent, name, start, end, request=1):
    return [id_, parent, request, name, start, end]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, None, "decompose", 0, 100),
        span(1, 0, "solve", 10, 30),
        span(2, 0, "verify", 20, 40),  # overlaps solve: union is 10..40
        span(3, 1, "solve", 12, 14),  # grandchild: only its parent loses it
        span(4, None, "decompose", 200, 250, request=2),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 70, 1: 18, 2: 20, 3: 2, 4: 50}


def test_child_totals_count_direct_children_only():
    spans = [
        span(0, None, "decompose", 0, 100),
        span(1, 0, "solve", 10, 30),
        span(2, 1, "solve", 12, 14),
        span(3, 0, "verify", 40, 90),
        span(4, None, "decompose", 200, 250, request=2),
    ]
    assert tracing.child_totals(spans, "decompose", "solve") == [20, 0]
    assert tracing.child_totals(spans, "decompose", "verify") == [50, 0]


def test_tracer_nests_wrapped_calls_under_the_open_span():
    tracer = tracing.Tracer()
    double = tracer.wrap(lambda x: 2 * x, "inner")
    assert double(1) == 2  # outside any span: not recorded
    assert tracer.spans == []
    with tracer.span("outer"):
        assert double(2) == 4
    with tracer.span("outer"):
        pass
    (outer, inner, second) = tracer.spans
    assert inner[tracing.PARENT] == outer[tracing.ID]
    assert inner[tracing.REQUEST] == outer[tracing.REQUEST] != second[tracing.REQUEST]
    own = tracing.self_times(tracer.spans)
    assert own[outer[tracing.ID]] == (outer[tracing.END] - outer[tracing.START]) - (
        inner[tracing.END] - inner[tracing.START])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert inputs.render_lines(workload, 7) == inputs.render_lines(workload, 7)
    assert inputs.digest(workload, 7) == inputs.digest(workload, 7)
    assert inputs.digest(workload, 7) != inputs.digest(workload, 8)


def test_arbitrary_f2x_panel_is_the_same_for_every_seed():
    def panel(seed):
        return [c for i, c in enumerate(inputs.big_cases(seed)) if i % 4 == 3]

    assert panel(1) == panel(2)
    assert all(c.family == "f2x" for c in panel(1))
    rest = [c for i, c in enumerate(inputs.big_cases(1)) if i % 4 != 3]
    assert rest != [c for i, c in enumerate(inputs.big_cases(2)) if i % 4 != 3]


def test_digest_does_not_depend_on_hash_randomization():
    code = "import inputs; print(*(inputs.digest(w, 3) for w in inputs.WORKLOADS))"
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=h), check=True).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_rendered_polynomials_round_trip():
    for coeffs in ([0], [1], [0, 1], [1, 1, 0, 1], [1, 0, 2], [4, 3]):
        text = inputs.render_poly(coeffs, "t")
        assert inputs.parse_poly(text, "t") == (coeffs if any(coeffs) else [0])
    assert inputs.parse_quotient_bits("(x^3+1)/(x)") == (0b1001, 0b10)
    assert inputs.parse_quotient_bits("x^2+x") == (0b110, 1)
