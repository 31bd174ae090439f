"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``[id, parent, request, name, start_ns, end_ns]``; spans of one
top-level call share the request id.  Spans are held in a list and
written out once, when the run ends.  A span's self time is its duration
minus the part of its interval that its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

ID, PARENT, REQUEST, NAME, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[list] = []
        self._requests = 0

    def begin(self, name: str) -> list:
        if self._open:
            parent = self._open[-1]
            parent_id, request = parent[ID], parent[REQUEST]
        else:
            self._requests += 1
            parent_id, request = None, self._requests
        span = [len(self.spans), parent_id, request, name, time.perf_counter_ns(), None]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> int:
        span[END] = time.perf_counter_ns()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")
        return span[END] - span[START]

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name: str):
        """``fn`` recording a child span whenever it runs inside another
        span; outside any span it runs untraced."""

        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            s = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)

        return traced

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _covered(intervals) -> int:
    """Total length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its direct children."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], ()))
        for s in spans
    }


def child_totals(spans, parent_name: str, child_name: str) -> list[int]:
    """Per ``parent_name`` span, the summed duration of its direct
    ``child_name`` children (0 where it has none)."""
    totals = {s[ID]: 0 for s in spans if s[NAME] == parent_name}
    for s in spans:
        if s[NAME] == child_name and s[PARENT] in totals:
            totals[s[PARENT]] += s[END] - s[START]
    return list(totals.values())


@contextmanager
def solver_spans(tracer: Tracer):
    """Record ``solve`` and ``verify`` child spans inside ``decompose``.

    Wraps the public pair solvers, which ``solver.decompose`` looks up in
    its module at call time, and ``DiagonalForm.evaluate``, which the
    returned ``Decomposition`` calls to check itself.  Restored on exit.
    """
    from m2forms import matrices, solver

    saved = (solver.decompose_pair_odd_char, solver.decompose_pair_char2,
             matrices.DiagonalForm.evaluate)
    solver.decompose_pair_odd_char = tracer.wrap(saved[0], "solve")
    solver.decompose_pair_char2 = tracer.wrap(saved[1], "solve")
    matrices.DiagonalForm.evaluate = tracer.wrap(saved[2], "verify")
    try:
        yield
    finally:
        (solver.decompose_pair_odd_char, solver.decompose_pair_char2,
         matrices.DiagonalForm.evaluate) = saved
