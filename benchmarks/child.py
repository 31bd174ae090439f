"""Fresh-interpreter timings: import and field construction.

    python benchmarks/child.py MODULE [FIELD ...]

Times ``import MODULE`` and then the first construction of each field,
given as ``Q``, ``F2(X)`` or ``p,k`` for GF(p^k).  Prints one JSON
object with both in ns and the median time of the reference loop (see
measure.py) around them; reference.py imports nothing m2forms would
load, so running it first does not shorten the import.  Run with
``PYTHONPATH`` pointing at the m2forms sources.
"""

import importlib
import json
import sys
import time

from reference import median_reference_ns

REFERENCE_RUNS = 9


def make_field(m2forms, spec: str):
    if spec == "Q":
        return m2forms.Rationals()
    if spec == "F2(X)":
        return m2forms.RationalFunctionField2()
    p, k = map(int, spec.split(","))
    return m2forms.PrimeField(p) if k == 1 else m2forms.ExtensionField(p, k)


def main(argv):
    module, descriptors = argv[0], argv[1:]
    median_reference_ns(1)  # warm the loop up
    before = median_reference_ns(REFERENCE_RUNS)
    t0 = time.perf_counter_ns()
    importlib.import_module(module)
    import_ns = time.perf_counter_ns() - t0
    import m2forms

    field_ns = []
    for desc in descriptors:
        t0 = time.perf_counter_ns()
        make_field(m2forms, desc)
        field_ns.append(time.perf_counter_ns() - t0)

    after = median_reference_ns(REFERENCE_RUNS)
    print(json.dumps({"import_ns": import_ns, "field_ns": field_ns,
                      "reference_ns": (before + after) / 2}))


if __name__ == "__main__":
    main(sys.argv[1:])
