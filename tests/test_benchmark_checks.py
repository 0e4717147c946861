"""One seed-0 pass of each benchmark workload, checked the way
`benchmarks/run.py` checks it: the invariants of every output and the
frozen digests in `benchmarks/references.json`.  A change that breaks what
the checker calls, or an output behind a frozen digest, fails here."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("name", ["enumerate", "classify", "density",
                                  "residue"])
def test_workload_pass_has_no_failures(name):
    workloads = _workloads()
    refs = json.loads((BENCHMARKS / "references.json").read_text())
    workload = workloads.WORKLOADS[name]
    ops = workload.inputs(0)
    # every referenced output of seed 0 has a frozen digest to meet
    assert all(op.key in refs for op in ops
               if op.group in workloads.REFERENCED)
    ctx = workload.build(ops)
    checker = workloads.Checker(refs)
    failures = {}
    for op in ops:
        rc, text = workload.run(op, ctx)
        reason = checker.check(op, rc, text)
        if reason is not None:
            failures[op.key] = reason
    assert ops and failures == {}
