"""Timing primitives shared by every workload.

A shared 2-vCPU x86-64 host (2.0 GHz, CPython 3.11.7, other tenants on
the same cores) switches between speeds a factor of two apart, for
milliseconds to tens of seconds at a time, which swamps the differences
a change to m2forms makes.  Every in-process timing is therefore
bracketed by a fixed pure-Python reference loop (reference.py) and
scaled to the reference speed:

    scaled = raw * REFERENCE_NS / (mean reference time before and after)

so a host that is twice as slow for a while makes both the reference and
the program twice as slow, and the scaled figure stays put.  Timings of
fresh interpreters are scaled the same way by a bare interpreter start
(StartupClock).  The references run no m2forms code, so no change to the
program can move them.  Raw figures are reported alongside.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time

from reference import median_reference_ns

# the reference loop's time at the reference speed: near its median on a
# 2.0 GHz x86-64 host running CPython 3.11.7
REFERENCE_NS = 150_000

SAMPLES = 3  # reference runs per host-factor sample
LONG_SAMPLES = 9  # reference runs on each side of a call timed on its own


class Calibrator:
    """Measures the host's current speed relative to the reference.

    ``factor()`` is measured reference time over REFERENCE_NS: 1.3 means
    the host currently runs 30% slower than the reference speed, and a
    raw time t taken now is reported as t / 1.3.
    """

    def __init__(self):
        self.factors: list[float] = []

    def factor(self, samples: int = SAMPLES) -> float:
        """Median host factor over ``samples`` reference runs.

        The median, not the fastest run: while the host flips between
        speeds the fastest would favour the fast state.  Not the mean
        either: one run descheduled for milliseconds would dominate it.
        """
        f = median_reference_ns(samples) / REFERENCE_NS
        self.factors.append(f)
        return f

    def timed(self, fn, *args):
        """(result, raw ns, factor) of one long call, the factor averaged
        from LONG_SAMPLES references just before and just after it."""
        before = self.factor(LONG_SAMPLES)
        t0 = time.perf_counter_ns()
        result = fn(*args)
        dt = time.perf_counter_ns() - t0
        return result, dt, (before + self.factor(LONG_SAMPLES)) / 2

    def median(self) -> float:
        return statistics.median(self.factors) if self.factors else float("nan")


class StartupClock:
    """Host factor for work done in fresh interpreters.

    Process start, imports and module set-up slow down differently from
    bytecode when the host is contended, so timings of subprocesses are
    scaled by the wall time of a bare ``python -c pass`` over STARTUP_NS
    instead of by the reference loop.  A call made within a millisecond
    of the previous one reuses its measurement, so back-to-back timings
    share the start between them.
    """

    STARTUP_NS = 40_000_000  # python -c pass at the reference speed, same host

    def __init__(self, env: dict, cwd):
        self.env, self.cwd = env, cwd
        self.factors: list[float] = []
        self._last = None  # (factor, perf_counter_ns when measured)

    def factor(self, samples: int = 1) -> float:
        if self._last and time.perf_counter_ns() - self._last[1] < 1_000_000:
            return self._last[0]
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.cwd, env=self.env, check=True)
        f = (time.perf_counter_ns() - t0) / self.STARTUP_NS
        self.factors.append(f)
        self._last = (f, time.perf_counter_ns())
        return f

    def median(self) -> float:
        return statistics.median(self.factors) if self.factors else float("nan")


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if not n:
        raise ValueError("no samples")
    k = max(1, math.ceil(p / 100 * n))
    return sorted_values[k - 1]


TAIL_BEYOND = 10


def tail(sorted_values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond).  With nearest rank that
    is the value with exactly TAIL_BEYOND samples ranked after it, at
    percentile 100 * (n - TAIL_BEYOND) / n.  Below TAIL_BEYOND + 1
    samples no percentile qualifies, and the maximum is returned with
    the samples beyond it (none) so the shortfall shows.
    """
    n = len(sorted_values)
    if not n:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100.0, sorted_values[-1], 0
    k = n - TAIL_BEYOND
    return 100 * k / n, sorted_values[k - 1], n - k


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of its largest waited
    child, in MiB (Linux reports ru_maxrss in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class Samples:
    """Completed-call latencies per input, and the busy time of one call
    stream, both raw and scaled.

    Every input runs many times in a run.  On a host that flips speed
    within a call no single call's latency can be scaled exactly, so an
    input's latency is the median of its completed calls, and the
    percentiles are taken over inputs.  ``tried`` and ``not_done`` are the
    inputs called at least once and those with a call that did not
    complete; unlike the call counts they do not grow with the run's
    length.
    """

    def __init__(self):
        self.scaled: dict[object, list[float]] = {}
        self.raw: dict[object, list[int]] = {}
        self.busy_scaled = 0.0
        self.busy_raw = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.tried: set = set()
        self.not_done: set = set()

    def add(self, key, ns: int, factor: float, completed: bool = True):
        self.attempted += 1
        self.tried.add(key)
        self.busy_raw += ns
        self.busy_scaled += ns / factor
        if completed:
            self.completed += 1
            self.raw.setdefault(key, []).append(ns)
            self.scaled.setdefault(key, []).append(ns / factor)
        else:
            self.failed += 1
            self.not_done.add(key)

    def summary(self, scaled: bool = True) -> dict:
        """calls_per_s over all completed calls; p50_us and the tail over
        per-input median latencies."""
        per_input = self.scaled if scaled else self.raw
        lat = sorted(statistics.median(v) for v in per_input.values())
        busy = self.busy_scaled if scaled else self.busy_raw
        if not lat:
            raise ValueError("no call completed")
        pct, value, beyond = tail(lat)
        return {
            "calls_per_s": self.completed / (busy / 1e9),
            "p50_us": percentile(lat, 50) / 1e3,
            "tail_us": value / 1e3,
            "tail_pct": pct,
            "tail_beyond": beyond,
            "inputs": len(lat),
            "completed": self.completed,
        }
