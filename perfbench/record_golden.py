"""Write golden.json from the program in this checkout.

    python3 perfbench/record_golden.py

Runs one untraced and one traced pass of every workload at seed 0 and
stores, per job, the output digest (manifest ``wall_time_ms`` left out),
the structural counts, the generator rates or window rate, and for the
CLI workloads the traced counts.  Random-corpus counts hold for every
seed, because seeds only relabel the same base networks.  Re-record only
for a change that is meant to alter outputs or counts, and say so.
"""

import json
import sys

import run
import tracing
import workloads


def record(dl, workload: str) -> dict:
    jobs = workloads.build(dl, workload, 0)
    _, _, raws = run.run_pass(dl, jobs)
    tracer = tracing.Tracer()
    with tracer:
        _, _, traced_raws = run.run_pass(dl, jobs, tracer)
    entries = {}
    for job in sorted(jobs, key=lambda j: j.id):
        summary = job.summarize(dl, raws[job.id])
        again = job.summarize(dl, traced_raws[job.id])
        if summary["problems"] or again["digest"] != summary["digest"]:
            sys.exit(f"{workload} {job.id}: {summary['problems'] or 'traced output differs'}")
        entry = {"digest": summary["digest"], "counts": summary["counts"]}
        if summary.get("detail") is not None:
            entry["detail"] = summary["detail"]
        if workload != "random-corpus":
            entry["traced"] = dict(sorted(tracer.counts[job.id].items()))
        entries[job.id] = entry
    return {"jobs": entries}


if __name__ == "__main__":
    dl = run.load_program()
    golden = {workload: record(dl, workload) for workload in run.WORKLOADS}
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
