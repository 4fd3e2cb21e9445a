"""Command-line interface: every subcommand reads/writes JSON documents.

Networks arrive via ``--network FILE`` or on standard input, so commands
pipe into each other.  Every output document embeds a run manifest with
the command, its parameters, the input fingerprint, and a completeness
flag.  Rationals are serialized as "p/q" strings.

Exit codes: 0 success, 2 input error, 3 budget-truncated result under
``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


# What a subcommand hands to ``_emit``: payload, input fingerprint, complete.
_Result = tuple[dict, str, bool]


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _load_network(args) -> Network:
    doc = _read_json(getattr(args, "network", None))
    return network_from_json(doc)


def _emit(args, payload: dict, fingerprint: str, complete: bool, t0: float) -> int:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "network", "command") and v is not None
    }
    payload["manifest"] = {
        "command": args.command,
        "parameters": params,
        "network_sha256": fingerprint,
        "complete": complete,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not complete and getattr(args, "strict", False):
        return EXIT_TRUNCATED
    return EXIT_OK


def _blocks_json(blocks, num_links: int, T: int) -> list:
    return [block_to_rows(b, num_links, T) for b in blocks]


def _cmd_gen_line(args) -> _Result:
    net = line_network(args.L, args.K)
    payload = network_to_json(net)
    return payload, network_fingerprint(net), True


def _cmd_character(args) -> _Result:
    net = _load_network(args)
    return {"character": character(net)}, network_fingerprint(net), True


def _cmd_reduce(args) -> _Result:
    source = net = _load_network(args)
    assignment = None
    if args.assignment is not None:
        try:
            shifts = [int(x) for x in args.assignment.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad assignment {args.assignment!r}") from exc
        if len(shifts) != len(net.links):
            raise ValueError("assignment length does not match link count")
        assignment = dict(zip(net.links, shifts))
        net = apply_vertex_assignment(net, assignment)
    reduced, g = gcd_reduce(net)
    payload = network_to_json(reduced)
    payload["g"] = g
    payload["character"] = character(reduced)
    if assignment is not None:
        payload["assignment"] = [assignment[l] for l in reduced.links]
    return payload, network_fingerprint(source), True


def _cmd_schedgraph(args) -> _Result:
    net = _load_network(args)
    num_links = len(net.links)
    payload: dict = {}
    if args.maximal:
        mx = sg.build_maximal(net, args.T)
        payload["left"] = len(mx.left)
        payload["right"] = len(mx.right)
        payload["maximal_edges"] = len(mx.edges)
        if args.dump:
            payload["edges"] = [_blocks_json(edge, num_links, args.T) for edge in mx.edges]
    else:
        graph = sg.build(net, args.T)
        payload["vertices"] = len(graph.vertices)
        payload["edges"] = graph.edge_count
        if args.dump:
            index = {v: i for i, v in enumerate(graph.vertices)}
            payload["vertex_list"] = _blocks_json(graph.vertices, num_links, args.T)
            payload["adjacency"] = [
                [index[b] for b in graph.adjacency[a]] for a in graph.vertices
            ]
    return payload, network_fingerprint(net), True


def _run_cycle_algorithm(net, args) -> cyc.CycleSearchResult:
    if args.algorithm == "johnson":
        graph = sg.build(net, args.T)
        return cyc.johnson_cycles(graph, max_len=args.max_length, budget=args.budget)
    if args.max_length is None:
        raise ValueError(f"--max-length is required for the {args.algorithm} algorithm")
    search = cyc.algorithm_a if args.algorithm == "incremental" else cyc.algorithm_b
    return search(net, args.T, args.max_length, budget=args.budget)


def _cmd_cycles(args) -> _Result:
    net = _load_network(args)
    num_links = len(net.links)
    result = _run_cycle_algorithm(net, args)
    payload = {
        "complete": result.complete,
        "cycles": [
            {
                "blocks": _blocks_json(c, num_links, args.T),
                "rate": [format_rate(r) for r in cyc.closed_path_rate(c, args.T, num_links)],
            }
            for c in result.cycles
        ],
    }
    return payload, network_fingerprint(net), result.complete


def _cmd_rate_region(args) -> _Result:
    net = _load_network(args)
    result = _run_cycle_algorithm(net, args)
    provenance = {
        "algorithm": args.algorithm,
        "k_max": args.max_length,
        "complete": result.complete,
    }
    region = reg.region_from_cycles(net, result.cycles, args.T, provenance)
    payload = reg.region_to_json(region)
    return payload, network_fingerprint(net), result.complete


def _cmd_framed_region(args) -> _Result:
    net = _load_network(args)
    region = reg.framed_region(net)
    payload = reg.region_to_json(region)
    return payload, network_fingerprint(net), True


def _cmd_verify_schedule(args) -> _Result:
    net = _load_network(args)
    sched_doc = _read_json(args.schedule)
    try:
        sched = schedule_from_json(net, sched_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad schedule document: {exc}") from exc
    diagnoses = [
        {"link": net.links[li], "t": t, "collision_free": free}
        for li, t, free in active_slots(net, sched)
    ]
    payload = {
        "collision_free": verify(net, sched),
        "diagnoses": diagnoses,
        "rate": [format_rate(r) for r in rate_vector(net, sched)],
    }
    return payload, network_fingerprint(net), True


def _cmd_achievable(args) -> _Result:
    doc = _read_json(args.region)
    try:
        region = reg.region_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad region document: {exc}") from exc
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
    return payload, json_sha256(doc), True


def _cmd_window_rate(args) -> _Result:
    net = _load_network(args)
    value = reg.window_symmetric_rate(net, args.T)
    payload = {"T": args.T, "character": character(net), "rate": format_rate(value)}
    return payload, network_fingerprint(net), True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaysched",
        description="Link scheduling with integer propagation delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network_arg(p):
        p.add_argument("--network", help="network JSON file (default: stdin)")

    p = sub.add_parser("gen-line", help="generate a multihop line network")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=_cmd_gen_line)

    p = sub.add_parser("character", help="maximum absolute support delay")
    add_network_arg(p)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("reduce", help="apply a vertex assignment and divide by the delay GCD")
    add_network_arg(p)
    p.add_argument("--assignment", help="comma-separated per-link integer shifts")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("schedgraph", help="materialize the scheduling graph")
    add_network_arg(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--maximal", action="store_true", help="maximal edge structure instead")
    p.add_argument("--dump", action="store_true", help="include vertices/edges in the output")
    p.set_defaults(func=_cmd_schedgraph)

    for name, func in (("cycles", _cmd_cycles), ("rate-region", _cmd_rate_region)):
        p = sub.add_parser(name)
        add_network_arg(p)
        p.add_argument("--T", type=int, required=True)
        p.add_argument(
            "--algorithm",
            choices=["johnson", "incremental", "maximal-subgraph"],
            required=True,
        )
        p.add_argument("--max-length", type=int)
        p.add_argument("--budget", type=float, help="wall-clock seconds")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when the result is budget-truncated")
        p.add_argument("--threads", type=int, default=1,
                       help="reserved; results are identical for any value")
        p.set_defaults(func=func)

    p = sub.add_parser("framed-region", help="region achieved by framed scheduling")
    add_network_arg(p)
    p.set_defaults(func=_cmd_framed_region)

    p = sub.add_parser("verify-schedule", help="collision diagnostics and rate vector")
    add_network_arg(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.set_defaults(func=_cmd_verify_schedule)

    p = sub.add_parser("achievable", help="convex-dominance membership query")
    p.add_argument("--region", required=True, help="region JSON file")
    p.add_argument("--rate", required=True, help='comma-separated rationals, e.g. "1/2,1/2"')
    p.set_defaults(func=_cmd_achievable)

    p = sub.add_parser("window-rate", help="max symmetric rate of the scaled window region")
    add_network_arg(p)
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(func=_cmd_window_rate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        payload, fingerprint, complete = args.func(args)
    except (ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _emit(args, payload, fingerprint, complete, t0)


if __name__ == "__main__":
    sys.exit(main())
