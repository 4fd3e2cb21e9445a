"""The benchmark's output gates, run as tests.

Every line-ladder and graph-build job of ``perfbench/`` runs once under
the benchmark's tracer.  Each count that ``perfbench/golden.json`` pins
for the job must come out as pinned, a count the run never took reading
0, the way ``perfbench/run.py`` checks a traced pass.  Every job of all
three workloads also runs untraced, and its summary goes through
``run.check`` as an untraced pass does: digest, detail, counts and the
job's own problems.  The benchmark's modules are imported as they are,
and no bytecode is cached beside them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import delaysched
import delaysched.cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
CASES = [(w, job) for w in ("line-ladder", "graph-build") for job in sorted(GOLDEN[w]["jobs"])]


def _benchmark_modules():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(name) for name in ("tracing", "workloads", "run"))
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


tracing, workloads, run = _benchmark_modules()


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


@pytest.mark.parametrize("workload", ["line-ladder", "graph-build", "random-corpus"])
def test_untraced_outputs_match_golden(workload):
    jobs = workloads.build(delaysched, workload, 0)
    assert sorted(job.id for job in jobs) == sorted(GOLDEN[workload]["jobs"])
    problems = {}
    for job in jobs:
        summary = job.summarize(delaysched, job.call(delaysched))
        problems[job.id] = run.check(job.id, summary, GOLDEN[workload], None)
    assert {job_id: p for job_id, p in problems.items() if p} == {}
