"""The benchmark's traced gate, run as a test.

Every line-ladder and graph-build job of ``perfbench/`` runs once under
the benchmark's tracer.  Each count that ``perfbench/golden.json`` pins
for the job must come out as pinned, a count the run never took reading
0, the way ``perfbench/run.py`` checks a traced pass.  The benchmark's
modules are imported as they are, and no bytecode is cached beside them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import delaysched

PERFBENCH = Path(__file__).parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
CASES = [(w, job) for w in ("line-ladder", "graph-build") for job in sorted(GOLDEN[w]["jobs"])]


def _benchmark_modules():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


tracing, workloads = _benchmark_modules()


@pytest.mark.parametrize("workload, job_id", CASES, ids=lambda x: x.replace(" ", "-"))
def test_traced_counts_match_golden(workload, job_id):
    (job,) = [j for j in workloads.build(delaysched, workload, 0) if j.id == job_id]
    tracer = tracing.Tracer()
    tracer.job = job_id
    with tracer:
        rc, _ = job.call(delaysched)
    assert rc == 0
    counts = tracer.counts[job_id]
    want = GOLDEN[workload]["jobs"][job_id]["traced"]
    assert {key: counts.get(key, 0) for key in want} == want
