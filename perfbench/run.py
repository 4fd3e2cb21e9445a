"""Benchmark of delaysched: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload line-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there, never from an installed copy.  One run:

1. set-up: fresh processes each time ``import delaysched`` plus the
   workload's input generation (``setup_probe.py``), three before each
   pass and three after the last;
2. passes over the workload's job list, single-threaded in this process.
   The pass count depends only on ``--seconds`` and the workload's
   nominal pass time, so both commits of a comparison take the same
   samples;
3. outside the timed region, every job's output is checked against
   ``golden.json`` and, for rate regions, by rebuilding and verifying the
   witness schedule of every generator.  A failing job counts in
   ``failed`` and the run goes on.

Every time is scaled by the machine-speed kernel of ``calibrate.py``,
sampled by a timer signal while jobs run and around each set-up sample.

With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics of the traced passes (see ``tracing.py`` and
README.md) and ``trace_overhead``.  Per-job times and counts, and the
spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("line-ladder", "graph-build", "random-corpus")
# Typical single-pass wall time, speed sampler included, on a shared 2-core
# x86-64 VM (Xeon, 2.1 GHz), Python 3.11; a run makes --seconds / this passes.
NOMINAL_PASS_S = {"line-ladder": 8.0, "graph-build": 10.0, "random-corpus": 9.8}
# Set-up samples are taken before each pass and after the last, so they
# are spread over the run like the passes are.
PROBES_PER_GAP = 3
MODULES = ("cli", "network", "window", "schedgraph", "cycles", "region", "exactlp", "schedule")


def load_program():
    """Import delaysched from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "delaysched" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    dl = importlib.import_module("delaysched")
    for name in MODULES:
        importlib.import_module(f"delaysched.{name}")
    if not Path(dl.__file__).resolve().is_relative_to(SRC):
        return None
    return dl


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """``PROBES_PER_GAP`` set-up samples, each in a fresh process, as
    (measured, scaled) seconds."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples, gaps = [], [calibrate.kernel_samples(8)]
    for _ in range(PROBES_PER_GAP):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))
        gaps.append(calibrate.kernel_samples(8))
    scales = calibrate.gap_scales(gaps)
    return samples, [x * k for x, k in zip(samples, scales)]


def load_golden(workload: str) -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check(job_id: str, summary: dict, golden: dict, traced_counts: dict | None) -> list[str]:
    """Problems of one job: its own, a golden mismatch, a traced/untraced mismatch."""
    problems = list(summary["problems"])
    want = golden["jobs"].get(job_id)
    if want is None:
        return problems + ["no golden entry"]
    if summary["digest"] != want["digest"]:
        problems.append(f"output digest {summary['digest']} != golden {want['digest']}")
    if summary.get("detail") != want.get("detail"):
        problems.append(f"output {summary.get('detail')} != golden {want.get('detail')}")
    for key, value in summary["counts"].items():
        if want["counts"].get(key) != value:
            problems.append(f"{key} = {value}, golden {want['counts'].get(key)}")
    if traced_counts is not None:
        for key, value in summary["counts"].items():
            if key in traced_counts and traced_counts[key] != value:
                problems.append(f"{key}: traced {traced_counts[key]}, untraced {value}")
        for key, value in want.get("traced", {}).items():
            if traced_counts.get(key, 0) != value:
                problems.append(f"traced {key} = {traced_counts.get(key, 0)}, golden {value}")
    return problems


def run_pass(dl, jobs, tracer=None):
    """Time every job once under the speed sampler.

    Returns ({job id: measured s}, {job id: speed scale}, raw results).
    """
    gc.collect()
    times, intervals, raws = {}, {}, {}
    sampler = calibrate.Sampler()
    if tracer is not None:
        tracer.clock = sampler.now
    with sampler:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            t0 = sampler.now()
            try:
                raws[job.id] = job.call(dl)
            except Exception as exc:  # a failing job is counted, the run goes on
                raws[job.id] = exc
            t1 = sampler.now()
            times[job.id] = t1 - t0
            intervals[job.id] = (t0, t1)
    scales = {job_id: sampler.scale(t0, t1) for job_id, (t0, t1) in intervals.items()}
    return times, scales, raws


def gate_pass(dl, jobs, raws, golden, tracer=None) -> dict[str, dict]:
    """Summaries of one pass, with the problems the checks found."""
    out = {}
    for job in jobs:
        raw = raws[job.id]
        if isinstance(raw, Exception):
            traceback.print_exception(raw, file=sys.stderr)
            summary = {"counts": {}, "digest": None,
                       "problems": [f"raised {type(raw).__name__}: {raw}"]}
        else:
            try:
                summary = job.summarize(dl, raw)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                summary = {"counts": {}, "digest": None,
                           "problems": [f"summary raised {type(exc).__name__}: {exc}"]}
        traced = dict(tracer.counts[job.id]) if tracer is not None else None
        summary["problems"] = check(job.id, summary, golden, traced)
        if traced is not None:
            summary["traced_counts"] = traced
        out[job.id] = summary
    return out


def tail(job_medians: list[float]) -> tuple[float, int]:
    """Mean of the slowest tenth of the per-job median times, at least one
    job, and the number of jobs it averages.  On a list of ten jobs or
    fewer it is the slowest job."""
    n = math.ceil(len(job_medians) / 10)
    return statistics.fmean(sorted(job_medians)[-n:]), n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dl = load_program()
    if dl is None:
        print(f"error: no delaysched sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden(args.workload)
    jobs = workloads.build(dl, args.workload, args.seed)

    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(2, passes + passes % 2)
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}   # scaled pass times, untraced / traced
    raw_walls = {False: [], True: []}
    job_times = {job.id: [] for job in jobs}   # scaled
    raw_job_times = {job.id: [] for job in jobs}
    layer_runs = []
    attempted = failed = 0
    report: dict[str, dict[str, int]] = {}
    setup, raw_setup = [], []

    def take_setup():
        measured, scaled = measure_setup(args.workload, args.seed)
        raw_setup.extend(measured)
        setup.extend(scaled)

    for p in range(passes):
        take_setup()
        traced = bool(args.trace) and p % 2 == 1
        if traced:
            mark = len(tracer.spans)
            tracer.counts.clear()
            with tracer:
                times, scale, raws = run_pass(dl, jobs, tracer)
        else:
            times, scale, raws = run_pass(dl, jobs)
        summaries = gate_pass(dl, jobs, raws, golden, tracer if traced else None)
        raw_walls[traced].append(sum(times.values()))
        walls[traced].append(sum(t * scale[job_id] for job_id, t in times.items()))
        if traced:
            layer_runs.append(tracing.layer_metrics(tracer.self_times_ms(mark, scale),
                                                    tracer.totals()))
        else:
            for job_id, t in times.items():
                job_times[job_id].append(t * scale[job_id])
                raw_job_times[job_id].append(t)
        for job_id, summary in summaries.items():
            attempted += 1
            if summary["problems"]:
                failed += 1
                print(f"FAILED pass {p} {job_id}: {'; '.join(summary['problems'])}",
                      file=sys.stderr)
            report.setdefault(job_id, {}).update(summary.get("traced_counts", {}))
            report[job_id].update(summary["counts"])
    take_setup()

    job_medians = {job_id: statistics.median(ts) for job_id, ts in job_times.items()}
    for job in jobs:
        print(f"job {job.id!r}: {job_medians[job.id] * 1000:.1f} ms median of "
              f"{len(job_times[job.id])}; counts {json.dumps(report[job.id], sort_keys=True)}")
    samples = [t for ts in job_times.values() for t in ts]
    tail_s, tail_jobs = tail(list(job_medians.values()))
    wall_s = statistics.median(walls[False])
    for traced in (False, True):
        if raw_walls[traced]:
            print(f"{'traced' if traced else 'untraced'} passes: measured "
                  f"{[round(w, 3) for w in raw_walls[traced]]} s, "
                  f"scaled {[round(w, 3) for w in walls[traced]]} s")
    print(f"job_tail_ms is the mean of the slowest {tail_jobs} of {len(job_medians)} "
          f"per-job medians; failed_frac {failed / max(attempted, 1):.4f}")
    print(f"setup_s measured {[round(x, 4) for x in raw_setup]}, "
          f"scaled {[round(x, 4) for x in setup]}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"jobs-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "setup_measured_s": raw_setup,
                   "pass_s": walls, "pass_measured_s": raw_walls,
                   "jobs": {job.id: {"times_s": job_times[job.id],
                                     "measured_s": raw_job_times[job.id],
                                     "counts": report[job.id]}
                            for job in jobs}}, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(out_dir / f"spans-{stem}.jsonl")
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        metrics["trace_overhead"] = statistics.median(walls[True]) / wall_s
        units = {name: "ms" if name.endswith("_ms") else
                 "ratio" if name.endswith(("_ratio", "overhead")) else "count"
                 for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(samples) * 1000,
            "job_tail_ms": tail_s * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                 "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
