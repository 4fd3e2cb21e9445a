"""The three workloads: their jobs, their inputs and what each job reports.

A job is a timed call into the program plus an untimed summary of what
came back.  The summary holds the job's structural counts (ints), a
digest of its output and a list of problems; a job with problems counts
as failed.  Count names match the per-layer counts of the traced run
wherever both measure the same thing, so the two runs can be compared
key by key.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import netgen

# line-ladder: (L, T, k, algorithm) on binary line networks with K = 1.
LADDER = (
    (4, 1, 4, "incremental"),
    (5, 1, 4, "incremental"),
    (6, 1, 3, "incremental"),
    (4, 2, 3, "incremental"),
    (5, 2, 3, "incremental"),
    (4, 1, 4, "maximal-subgraph"),
    (5, 2, 3, "maximal-subgraph"),
)

# graph-build: (job id, argv, network document).
GRAPH_JOBS = (
    ("schedgraph L5 T3", ["schedgraph", "--T", "3"], netgen.line_doc(5, 1)),
    ("schedgraph chain5 T2", ["schedgraph", "--T", "2"], netgen.hyper_chain_doc(5)),
    ("schedgraph --maximal chain5 T2", ["schedgraph", "--maximal", "--T", "2"],
     netgen.hyper_chain_doc(5)),
    ("schedgraph --maximal L6 T3", ["schedgraph", "--maximal", "--T", "3"],
     netgen.line_doc(6, 1)),
    ("window-rate L4 T6", ["window-rate", "--T", "6"], netgen.line_doc(4, 1)),
)

# random-corpus: the base networks are one fixed draw; the run's seed
# relabels links, may reverse time and shuffles the order.  Relabelling
# and time reversal give isomorphic networks, so every count is the same
# for every seed while the program still sees different inputs.  With a
# fresh draw per seed, a handful of heavy networks (up to 3.5 s each where
# the median is 25 ms) made a pass spread by 20-30% from seed to seed.
CORPUS_MASTER_SEED = 2107_03083
CORPUS_SIZE = 100
CORPUS_MAX_VERTICES = 48
CORPUS_K = 3


@dataclass(frozen=True)
class Job:
    id: str
    call: Callable[[Any], Any]
    summarize: Callable[[Any, Any], dict]


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build(dl, workload: str, seed: int) -> list[Job]:
    """Job list of a workload in the seed's order; ``dl`` is the loaded package."""
    rng = random.Random(seed)
    if workload == "line-ladder":
        jobs = [_ladder_job(*rung) for rung in LADDER]
    elif workload == "graph-build":
        jobs = [_cli_job(job_id, argv, doc) for job_id, argv, doc in GRAPH_JOBS]
    elif workload == "random-corpus":
        jobs = [_corpus_job(dl, i, doc, T)
                for i, (doc, T) in enumerate(corpus(rng))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def corpus(rng: random.Random) -> list[tuple[dict, int]]:
    """The fixed base draw, each network relabelled by ``rng``."""
    base = random.Random(CORPUS_MASTER_SEED)
    out = []
    while len(out) < CORPUS_SIZE:
        T = base.choice([1, 2])
        doc = netgen.random_doc(base, T)
        if netgen.count_window_vertices(doc, T, CORPUS_MAX_VERTICES) > CORPUS_MAX_VERTICES:
            continue
        out.append((netgen.relabel(doc, rng), T))
    return out


# ---------------------------------------------------------------- CLI jobs

def _run_cli(dl, argv: list[str], doc_text: str) -> tuple[int, str]:
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = dl.cli.main(argv)
    finally:
        sys.stdin = stdin
    return rc, out.getvalue()


def _cli_job(job_id: str, argv: list[str], doc: dict) -> Job:
    doc_text = json.dumps(doc)
    return Job(job_id, lambda dl: _run_cli(dl, argv, doc_text),
               lambda dl, raw: _summarize_cli(dl, raw, doc))


def _ladder_job(L: int, T: int, k: int, algorithm: str) -> Job:
    argv = ["rate-region", "--T", str(T), "--algorithm", algorithm, "--max-length", str(k)]
    return _cli_job(f"rate-region L{L} T{T} k{k} {algorithm}", argv, netgen.line_doc(L, 1))


def _summarize_cli(dl, raw, doc: dict) -> dict:
    rc, text = raw
    if rc != 0:
        return {"counts": {}, "digest": None, "problems": [f"exit code {rc}"]}
    out = json.loads(text)
    manifest = out["manifest"]
    manifest.pop("wall_time_ms")
    problems = [] if manifest["complete"] else ["truncated"]
    command = manifest["command"]
    counts: dict[str, int] = {}
    detail = out.get("rate")
    if command == "rate-region":
        counts["region.generators"] = len(out["generators"])
        detail = [gen["rate"] for gen in out["generators"]]
        problems += _witness_problems(dl, dl.network.network_from_json(doc), out)
    elif command == "schedgraph" and "vertices" in out:
        counts["schedgraph.vertices"] = out["vertices"]
        counts["schedgraph.edges"] = out["edges"]
    elif command == "schedgraph":
        counts["schedgraph.estar"] = out["maximal_edges"]
        counts["maximal.left"] = out["left"]
        counts["maximal.right"] = out["right"]
    return {"counts": counts, "digest": digest(out), "problems": problems, "detail": detail}


def _witness_problems(dl, net, out: dict) -> list[str]:
    """Rebuild each generator's witness schedule; it must verify and give the rate."""
    T = out["T"]
    problems = []
    for i, gen in enumerate(out["generators"]):
        rate = tuple(Fraction(r) for r in gen["rate"])
        blocks = [dl.window.block_from_rows(rows, T) for rows in gen["witness"]]
        s = dl.schedule.schedule_from_closed_path(blocks, T, len(net.links))
        if not dl.schedule.verify(net, s):
            problems.append(f"generator {i}: witness collides")
        elif dl.schedule.rate_vector(net, s) != rate:
            problems.append(f"generator {i}: witness rate differs")
    return problems


# ----------------------------------------------------------- corpus jobs

def _corpus_job(dl, index: int, doc: dict, T: int) -> Job:
    net = dl.network.network_from_json(doc)
    return Job(f"corpus #{index:03d}", lambda dl: _corpus_call(dl, net, T),
               lambda dl, raw: _summarize_corpus(dl, net, T, raw))


def _queries(region) -> list[tuple[Fraction, ...]]:
    """Three symmetric points with known answers: zero, the generators'
    centroid floor (inside), and above every coordinate (outside)."""
    n = len(region.links)
    gens = region.generators
    centroid = [sum(g[i] for g in gens) / len(gens) for i in range(n)] if gens else [0] * n
    top = max((x for g in gens for x in g), default=Fraction(0))
    return [(Fraction(0),) * n, (min(centroid),) * n, (top + Fraction(1, 8),) * n]


EXPECTED_ANSWERS = (True, True, False)


def _corpus_call(dl, net, T: int):
    window = dl.window.build_window(net, T)
    maximal = window.maximal_independent_sets()
    graph = dl.schedgraph.build(net, T)
    johnson = dl.cycles.johnson_cycles(graph, max_len=CORPUS_K)
    search = dl.cycles.algorithm_a(net, T, CORPUS_K)
    region = dl.region.region_from_cycles(net, search.cycles, T)
    bad = 0
    for gen, wit in zip(region.generators, region.witnesses):
        s = dl.schedule.schedule_from_closed_path(wit, T, len(net.links))
        if not (dl.schedule.verify(net, s) and dl.schedule.rate_vector(net, s) == gen):
            bad += 1
    answers = tuple(dl.region.is_achievable(region, q) for q in _queries(region))
    return window, maximal, graph, johnson, search, region, bad, answers


def _summarize_corpus(dl, net, T: int, raw) -> dict:
    window, maximal, graph, johnson, search, region, bad, answers = raw
    counts = {
        "corpus.window_maximal_sets": len(maximal),
        "schedgraph.vertices": len(graph.vertices),
        "schedgraph.edges": graph.edge_count,
        "cycles.johnson_cycles": len(johnson.cycles),
        "cycles.retained": len(search.cycles),
        "region.generators": len(region.generators),
        "schedule.witnesses": len(region.witnesses),
    }
    problems = []
    if not (johnson.complete and search.complete):
        problems.append("truncated")
    if bad:
        problems.append(f"{bad} witnesses fail verify or rate")
    if answers != EXPECTED_ANSWERS:
        problems.append(f"achievable answers {answers}, expected {EXPECTED_ANSWERS}")
    brute = sorted(
        a for a in window.independent_sets()
        if not any(window.is_independent(a | 1 << p)
                   for p in range(window.nbits) if not a >> p & 1)
    )
    if maximal != brute:
        problems.append("maximal independent sets differ from brute force")
    return {"counts": counts, "digest": digest([counts, answers]), "problems": problems}
