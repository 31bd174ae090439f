"""The reference loop the host's speed is measured with (see measure.py).

Kept free of imports beyond the interpreter's own modules, so that a
fresh interpreter can run it before importing m2forms without loading
anything m2forms would otherwise load itself.
"""

import gc
import time
from math import gcd


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other, p):
        return _Cell((self.a * other.a + self.b * other.b) % p, (self.a * other.b + self.b * other.a) % p)


def _work():
    """Object calls, tuple keys and small-int arithmetic with gcd
    reduction: the mix of interpreter work the field and matrix layers do."""
    acc, step, table = _Cell(1, 2), _Cell(3, 5), {}
    num, den = 1, 3
    for i in range(100):
        acc = acc.mul(step, 1000003)
        table[(acc.a & 63, i & 7)] = acc
        if isinstance(acc, _Cell) and acc.b & 1:
            num, den = num * 7 + (i + 1) * den, den * 7
            g = gcd(num, den)
            num, den = num // g, den // g
    return len(table), num, den


def reference_ns() -> int:
    """One timing of the reference loop, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def median_reference_ns(runs: int) -> float:
    times = sorted(reference_ns() for _ in range(runs))
    mid = len(times) // 2
    return times[mid] if runs % 2 else (times[mid - 1] + times[mid]) / 2
