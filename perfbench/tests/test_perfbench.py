"""Tests of the benchmark itself: smoke passes, the output gate, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import netgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DL = run.load_program()

SMOKE = {
    "line-ladder": {"rate-region L4 T1 k4 incremental", "rate-region L4 T1 k4 maximal-subgraph"},
    "graph-build": {"schedgraph --maximal L6 T3", "window-rate L4 T6"},
    "random-corpus": {f"corpus #{i:03d}" for i in range(6)},
}


def smoke_jobs(workload: str, seed: int = 5):
    return [job for job in workloads.build(DL, workload, seed) if job.id in SMOKE[workload]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_is_correct(workload):
    jobs = smoke_jobs(workload)
    golden = run.load_golden(workload)
    times, scales, raws = run.run_pass(DL, jobs)
    summaries = run.gate_pass(DL, jobs, raws, golden)
    assert set(times) == set(scales) == {job.id for job in jobs}
    assert all(t > 0 for t in times.values()) and all(k > 0 for k in scales.values())
    assert {job_id: s["problems"] for job_id, s in summaries.items()} == \
        {job.id: [] for job in jobs}


def test_gate_rejects_wrong_golden_values():
    jobs = smoke_jobs("line-ladder")
    _, _, raws = run.run_pass(DL, jobs)
    golden = copy.deepcopy(run.load_golden("line-ladder"))
    job_id = "rate-region L4 T1 k4 incremental"
    want = golden["jobs"][job_id]
    want["counts"]["region.generators"] += 1
    want["detail"][0][0] = "1/3"
    want["digest"] = "0" * 16
    want["traced"]["cycles.retained"] += 1
    summaries = run.gate_pass(DL, jobs, raws, golden)
    problems = summaries[job_id]["problems"]
    assert any("region.generators" in p for p in problems)
    assert any("output" in p and "golden" in p for p in problems)
    assert any("digest" in p for p in problems)
    other = next(j for j in summaries if j != job_id)
    assert summaries[other]["problems"] == []

    tracer = tracing.Tracer()
    with tracer:
        _, _, traced_raws = run.run_pass(DL, jobs, tracer)
    summaries = run.gate_pass(DL, jobs, traced_raws, golden, tracer)
    assert any("traced cycles.retained" in p for p in summaries[job_id]["problems"])


def test_gate_rejects_a_wrong_witness():
    job = next(j for j in smoke_jobs("line-ladder") if "incremental" in j.id)
    rc, text = job.call(DL)
    # Claim a rate the witness schedule does not deliver.
    text = text.replace('"1/2"', '"2/3"', 1)
    summary = job.summarize(DL, (rc, text))
    assert any("witness rate differs" in p for p in summary["problems"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_counts_agree(workload):
    jobs = smoke_jobs(workload)
    golden = run.load_golden(workload)
    _, _, raws = run.run_pass(DL, jobs)
    plain = run.gate_pass(DL, jobs, raws, golden)
    tracer = tracing.Tracer()
    with tracer:
        _, _, traced_raws = run.run_pass(DL, jobs, tracer)
    traced = run.gate_pass(DL, jobs, traced_raws, golden, tracer)
    shared = 0
    for job in jobs:
        assert traced[job.id]["problems"] == []
        assert traced[job.id]["counts"] == plain[job.id]["counts"]
        assert traced[job.id]["digest"] == plain[job.id]["digest"]
        both = plain[job.id]["counts"].keys() & traced[job.id]["traced_counts"].keys()
        for key in both:
            assert plain[job.id]["counts"][key] == traced[job.id]["traced_counts"][key]
        shared += len(both)
    assert shared > 0
    metrics = tracing.layer_metrics(tracer.self_times_ms(), tracer.totals())
    assert set(metrics) == {m["name"] for m in bench_json()["per_layer"]} - {"trace_overhead"}


def test_tracer_restores_the_program():
    before = (DL.region.dominating_combination, DL.cycles.build_maximal,
              DL.cli.network_fingerprint, DL.exactlp.simplex_min,
              DL.window.WindowGraph.__dict__["independent_sets"])
    with tracing.Tracer():
        assert DL.region.dominating_combination is not before[0]
        assert DL.cycles.build_maximal is not before[1]
    after = (DL.region.dominating_combination, DL.cycles.build_maximal,
             DL.cli.network_fingerprint, DL.exactlp.simplex_min,
             DL.window.WindowGraph.__dict__["independent_sets"])
    assert after == before


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans += [("a", 0.0, 1.0, None, "j"), ("b", 0.1, 0.4, 0, "j"),
                     ("c", 0.2, 0.3, 1, "j"), ("b", 0.5, 0.6, 0, "j")]
    ms = tracer.self_times_ms()
    assert ms["a"] == pytest.approx(600.0)
    assert ms["b"] == pytest.approx(300.0)
    assert ms["c"] == pytest.approx(100.0)


def test_tail_averages_the_slowest_tenth_of_jobs():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (95.5, 10)
    assert run.tail([float(i) for i in range(1, 22)]) == (20.0, 3)
    assert run.tail([3.0, 1.0, 5.0, 2.0, 4.0]) == (5.0, 1)


def test_generator_matches_program_line_network_and_is_seeded():
    for L in (4, 5, 6):
        assert netgen.line_doc(L, 1) == DL.network.network_to_json(DL.network.line_network(L, 1))
    import random
    a = workloads.corpus(random.Random(3))
    assert len(a) == workloads.CORPUS_SIZE
    assert a == workloads.corpus(random.Random(3))
    assert a != workloads.corpus(random.Random(4))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "line-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def bench_json() -> dict:
    import json
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_sampler_clock_leaves_out_the_kernel_and_scales_by_nearby_samples():
    sampler = calibrate.Sampler()
    with sampler:
        wall0, clock0 = time.perf_counter(), sampler.now()
        while time.perf_counter() - wall0 < 0.35:
            pass
        wall, clock = time.perf_counter() - wall0, sampler.now() - clock0
    assert len(sampler.kernel) >= 2
    assert clock == pytest.approx(wall - sum(sampler.kernel), abs=0.01)
    # The 16 samples nearest to the job are 0-15; one slow sample among
    # them moves the mean speed by at most 1/16, the far ones 17-19 are
    # not used.
    sampler.times = [float(i) for i in range(20)]
    sampler.kernel = [0.002] * 17 + [0.9] * 3
    sampler.kernel[3] = 0.5
    assert calibrate.MIN_SAMPLES == 16
    speed = calibrate.REFERENCE_S / 0.002
    assert sampler.scale(1.9, 2.1) == pytest.approx((15 * speed + calibrate.REFERENCE_S / 0.5) / 16)
    assert sampler.scale(1.9, 2.1) > 0.93 * speed


def _burn():
    """A fixed amount of pure-Python work, about 0.25 s."""
    x = 0
    for i in range(3_000_000):
        x += i * i
    return x


def test_a_slowdown_of_the_program_shows_in_full_in_scaled_times(monkeypatch):
    # Scaled times must add up: the program with a fixed amount of extra
    # work in every job costs the program plus that work, each scaled on its
    # own.  A speed kernel disturbed by the program's state would break this.
    jobs = smoke_jobs("line-ladder")

    def scaled_pass():
        times, scales, _ = run.run_pass(DL, jobs)
        return sum(t * scales[job_id] for job_id, t in times.items())

    sampler, intervals = calibrate.Sampler(), []
    with sampler:
        for _ in range(5):
            t0 = sampler.now()
            _burn()
            intervals.append((t0, sampler.now()))
    burn = statistics.median((t1 - t0) * sampler.scale(t0, t1) for t0, t1 in intervals)
    base = statistics.median(scaled_pass() for _ in range(3))

    main = DL.cli.main

    def slowed(argv):
        _burn()
        return main(argv)

    monkeypatch.setattr(DL.cli, "main", slowed)
    slow = statistics.median(scaled_pass() for _ in range(3))
    assert slow - base == pytest.approx(len(jobs) * burn, rel=0.35)
