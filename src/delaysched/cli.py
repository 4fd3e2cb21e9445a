"""Command-line interface: every subcommand reads/writes JSON documents.

Networks arrive via ``--network FILE`` or on standard input, so commands
pipe into each other.  Every output document embeds a run manifest with
the command, its parameters, the input fingerprint, and a completeness
flag.  Rationals are serialized as "p/q" strings.

A subcommand is one entry of ``COMMANDS``: its help, arguments and handler.
``main`` alone reads the input, fingerprints the canonical JSON form of
what it parsed (network or region) and writes the manifest, which records
every argument that is not ``None``: a new flag defaults to ``None``, or
it moves every pinned digest.

Exit codes: 0 success, 1 standard output closed before the result was
written, 2 input error, 3 budget-truncated result under ``--strict``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import cycles as cyc
from . import region as reg
from . import schedgraph as sg
from .network import (
    Network,
    character,
    format_rate,
    gcd_reduce,
    apply_vertex_assignment,
    json_sha256,
    line_network,
    network_fingerprint,
    network_from_json,
    network_to_json,
    parse_rate,
)
from .schedule import active_slots, rate_vector, schedule_from_json, verify
from .window import CapExceededError, block_to_rows

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _cmd_gen_line(args, net: Network) -> dict:
    return network_to_json(net)


def _cmd_character(args, net: Network) -> dict:
    return {"character": character(net)}


def _cmd_reduce(args, net: Network) -> dict:
    shifts = None
    if args.assignment is not None:
        try:
            shifts = [int(x) for x in args.assignment.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad assignment {args.assignment!r}") from exc
        if len(shifts) != len(net.links):
            raise ValueError("assignment length does not match link count")
        net = apply_vertex_assignment(net, dict(zip(net.links, shifts)))
    reduced, g = gcd_reduce(net)
    payload = network_to_json(reduced) | {"g": g, "character": character(reduced)}
    if shifts is not None:
        payload["assignment"] = shifts  # gcd_reduce keeps the link order
    return payload


def _cmd_schedgraph(args, net: Network) -> dict:
    num_links = len(net.links)
    if args.maximal:
        mx = sg.build_maximal(net, args.T)
        payload = {"left": len(mx.left), "right": len(mx.right), "maximal_edges": len(mx.edges)}
        if args.dump:
            rows = {b: block_to_rows(b, num_links, args.T) for b in {*mx.left, *mx.right}}
            payload["edges"] = [[rows[a], rows[b]] for a, b in mx.edges]
        return payload
    graph = sg.build(net, args.T)
    payload = {"vertices": len(graph.vertices), "edges": graph.edge_count}
    if args.dump:
        index = {v: i for i, v in enumerate(graph.vertices)}
        payload["vertex_list"] = [block_to_rows(v, num_links, args.T) for v in graph.vertices]
        payload["adjacency"] = [[index[b] for b in graph.adjacency[a]] for a in graph.vertices]
    return payload


def _run_cycle_algorithm(net, args) -> cyc.CycleSearchResult:
    if args.algorithm == "johnson":
        graph = sg.build(net, args.T)
        return cyc.johnson_cycles(graph, max_len=args.max_length, budget=args.budget)
    if args.max_length is None:
        raise ValueError(f"--max-length is required for the {args.algorithm} algorithm")
    search = cyc.algorithm_a if args.algorithm == "incremental" else cyc.algorithm_b
    return search(net, args.T, args.max_length, budget=args.budget)


def _cmd_cycles(args, net: Network) -> tuple[dict, bool]:
    num_links = len(net.links)
    result = _run_cycle_algorithm(net, args)
    paths = tuple(result.cycles)  # a grouped Johnson result is expanded once, here
    # One denominator for all: Fraction reduces each rate to what
    # closed_path_rate gives for its cycle alone.
    numerators, den = cyc.rate_numerators(paths, args.T, num_links)
    rows = {b: block_to_rows(b, num_links, args.T) for b in {b for c in paths for b in c}}
    cycles = [
        {"blocks": [rows[b] for b in c], "rate": [format_rate(Fraction(x, den)) for x in rate]}
        for c, rate in zip(paths, numerators)
    ]
    return {"complete": result.complete, "cycles": cycles}, result.complete


def _cmd_rate_region(args, net: Network) -> tuple[dict, bool]:
    result = _run_cycle_algorithm(net, args)
    provenance = {"algorithm": args.algorithm, "k_max": args.max_length,
                  "complete": result.complete}
    region = reg.region_from_cycles(net, result.cycles, args.T, provenance)
    return reg.region_to_json(region), result.complete


def _cmd_framed_region(args, net: Network) -> dict:
    return reg.region_to_json(reg.framed_region(net))


def _cmd_verify_schedule(args, net: Network) -> dict:
    sched = schedule_from_json(net, _read_json(args.schedule))
    diagnoses = [{"link": net.links[li], "t": t, "collision_free": free}
                 for li, t, free in active_slots(net, sched)]
    return {
        "collision_free": verify(net, sched),
        "diagnoses": diagnoses,
        "rate": [format_rate(r) for r in rate_vector(net, sched)],
    }


def _cmd_achievable(args, region: reg.RegionDescription) -> dict:
    try:
        rate = tuple(parse_rate(x) for x in args.rate.split(","))
    except ValueError as exc:
        raise ValueError(f"bad rate {args.rate!r}") from exc
    weights = reg.achievability_certificate(region, rate)
    payload: dict = {"achievable": weights is not None}
    if weights is not None:
        payload["combination"] = {
            "weights": [format_rate(w) for w in weights],
            "generators": [[format_rate(r) for r in g] for g in region.generators],
        }
    return payload


def _cmd_window_rate(args, net: Network) -> dict:
    value = reg.window_symmetric_rate(net, args.T)
    return {"T": args.T, "character": character(net), "rate": format_rate(value)}


class Command(NamedTuple):
    """A subcommand.  ``reads`` names the input ``main`` hands to ``run``: "network"
    (``--network`` or stdin), "line" (``--L`` and ``--K``) or "region" (``--region``)."""

    help: str
    arguments: tuple  # (flag, add_argument keywords) pairs
    run: Callable  # (args, input) -> payload, or (payload, complete)
    reads: str = "network"


_REQUIRED_INT = {"type": int, "required": True}
_T = (("--T", _REQUIRED_INT),)
_SEARCH = _T + (
    ("--algorithm", {"choices": ["johnson", "incremental", "maximal-subgraph"], "required": True}),
    ("--max-length", {"type": int}),
    ("--budget", {"type": float, "help": "wall-clock seconds"}),
    ("--strict", {"action": "store_true", "help": "exit 3 when the result is budget-truncated"}),
    ("--threads", {"type": int, "default": 1,
                   "help": "reserved; results are identical for any value"}),
)

COMMANDS = {
    "gen-line": Command("generate a multihop line network", (
        ("--L", _REQUIRED_INT), ("--K", _REQUIRED_INT),
    ), _cmd_gen_line, reads="line"),
    "character": Command("maximum absolute support delay", (), _cmd_character),
    "reduce": Command("apply a vertex assignment and divide by the delay GCD", (
        ("--assignment", {"help": "comma-separated per-link integer shifts"}),
    ), _cmd_reduce),
    "schedgraph": Command("materialize the scheduling graph", _T + (
        ("--maximal", {"action": "store_true", "help": "maximal edge structure instead"}),
        ("--dump", {"action": "store_true", "help": "include vertices/edges in the output"}),
    ), _cmd_schedgraph),
    "cycles": Command("cycles of the scheduling graph", _SEARCH, _cmd_cycles),
    "rate-region": Command("rate region spanned by the cycles", _SEARCH, _cmd_rate_region),
    "framed-region": Command("region achieved by framed scheduling", (), _cmd_framed_region),
    "verify-schedule": Command("collision diagnostics and rate vector", (
        ("--schedule", {"required": True, "help": "schedule JSON file"}),
    ), _cmd_verify_schedule),
    "achievable": Command("convex-dominance membership query", (
        ("--region", {"required": True, "help": "region JSON file"}),
        ("--rate", {"required": True, "help": 'comma-separated rationals, e.g. "1/2,1/2"'}),
    ), _cmd_achievable, reads="region"),
    "window-rate": Command("max symmetric rate of the scaled window region", _T, _cmd_window_rate),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first ``main`` call and reused: parsing leaves the parser
    # as it was, and help reads the terminal width when it is printed.
    parser = argparse.ArgumentParser(prog="delaysched",
                                     description="Link scheduling with integer propagation delays.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads == "network":
            p.add_argument("--network", help="network JSON file (default: stdin)")
        for flag, options in command.arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    command = COMMANDS[args.command]
    try:
        if command.reads == "region":
            subject = reg.region_from_json(_read_json(args.region))
            fingerprint = json_sha256(reg.region_to_json(subject))
        else:
            subject = (line_network(args.L, args.K) if command.reads == "line"
                       else network_from_json(_read_json(args.network)))
            fingerprint = network_fingerprint(subject)
        out = command.run(args, subject)
    except (ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload, complete = out if isinstance(out, tuple) else (out, True)
    payload["manifest"] = {
        "command": args.command,
        "parameters": {
            k: v for k, v in vars(args).items() if k not in ("network", "command") and v is not None
        },
        "network_sha256": fingerprint,
        "complete": complete,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }
    try:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the flush at exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    return EXIT_TRUNCATED if not complete and getattr(args, "strict", False) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
