import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import delaysched
from delaysched import cli
from delaysched import cycles as cycles_mod
from delaysched.cli import main
from delaysched.network import format_rate, network_fingerprint, network_from_json, network_to_json

from conftest import hyper_chain

F = Fraction


def run_cli(capsys, monkeypatch, argv, stdin_doc=None):
    if stdin_doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin_doc)))
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def gen_line(capsys, monkeypatch, L, K):
    code, doc = run_cli(capsys, monkeypatch, ["gen-line", "--L", str(L), "--K", str(K)])
    assert code == 0
    return doc


def test_gen_line_pipes_into_character(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    assert net_doc["links"] == ["l1", "l2", "l3", "l4"]
    code, doc = run_cli(capsys, monkeypatch, ["character"], stdin_doc=net_doc)
    assert code == 0
    assert doc["character"] == 1
    assert doc["manifest"]["command"] == "character"
    assert doc["manifest"]["complete"] is True


def test_schedgraph_counts(capsys, monkeypatch, tmp_path):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    path = tmp_path / "n41.json"
    path.write_text(json.dumps(net_doc))
    code, doc = run_cli(
        capsys, monkeypatch, ["schedgraph", "--network", str(path), "--T", "1"]
    )
    assert code == 0
    assert doc["vertices"] == 9 and doc["edges"] == 56
    code, doc = run_cli(
        capsys, monkeypatch,
        ["schedgraph", "--network", str(path), "--T", "1", "--maximal"],
    )
    assert code == 0
    assert doc["maximal_edges"] == 6
    assert doc["left"] == 4 and doc["right"] == 4


def test_schedgraph_dump_roundtrip(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(
        capsys, monkeypatch, ["schedgraph", "--T", "1", "--dump"], stdin_doc=net_doc
    )
    assert code == 0
    assert len(doc["vertex_list"]) == 9
    assert sum(len(row) for row in doc["adjacency"]) == 56


# Outputs recorded before rates and the exact LP moved to integers,
# ``schedgraph --dump`` outputs recorded before edges were built from the
# boundary-crossing masks (their row order feeds Johnson's output), and the
# ``schedgraph --maximal`` hyperedge-chain and ``window-rate`` outputs
# recorded before the hyperedge maximal-set walk was pruned and window-rate
# moved to maximal sets, and the ``rate-region`` L4 T3 incremental and
# L4 T2 johnson outputs recorded before the layer step, the path walk and
# the Johnson search were rewritten, and the ``cycles`` L5 T2 incremental
# output (the retained list of the ladder's heaviest rung) recorded before
# cycle retention moved to bit-sliced cover masks; every later change must
# reproduce them (``wall_time_ms`` aside).
LADDER_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "ladder_outputs.json").read_text()
)


def ladder_output(capsys, monkeypatch, hyper_n4, case):
    """The output of one pinned ladder case, ``wall_time_ms`` aside."""
    command, net, T, *options = case.split()
    if net == "hyper_n4":
        net_doc = network_to_json(hyper_n4)
    elif net.startswith("chain"):
        net_doc = network_to_json(hyper_chain(int(net[5:])))
    else:
        net_doc = gen_line(capsys, monkeypatch, int(net[1:]), 1)
    argv = [command, "--T", T[1:]]
    if command == "schedgraph":
        # Every schedgraph pin is a dump; the option "maximal" adds --maximal.
        argv += ["--dump"] + (["--maximal"] if options == ["maximal"] else [])
    elif command != "window-rate":
        k, algorithm = options
        argv += ["--algorithm", algorithm, "--max-length", k[1:]]
    code, doc = run_cli(capsys, monkeypatch, argv, stdin_doc=net_doc)
    assert code == 0
    doc["manifest"].pop("wall_time_ms")
    return doc


@pytest.mark.parametrize("case", sorted(LADDER_OUTPUTS), ids=lambda c: c.replace(" ", "-"))
def test_ladder_outputs_unchanged(capsys, monkeypatch, hyper_n4, case):
    assert ladder_output(capsys, monkeypatch, hyper_n4, case) == LADDER_OUTPUTS[case]


# gen-line, character, reduce --assignment, framed-region, verify-schedule
# and achievable outputs recorded before the subcommands moved to one
# command table.  Each case holds its argv, its standard-input network (or
# null), the files it reads (written to the working directory, so their
# names in the manifest stay fixed) and its output (``wall_time_ms`` aside).
CLI_OUTPUTS = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def cli_output(capsys, monkeypatch, case):
    """The output of one pinned case run in the working directory, ``wall_time_ms`` aside."""
    pin = CLI_OUTPUTS[case]
    for name, file_doc in pin["files"].items():
        Path(name).write_text(json.dumps(file_doc))
    code, doc = run_cli(capsys, monkeypatch, pin["argv"], stdin_doc=pin["network"])
    assert code == 0
    doc["manifest"].pop("wall_time_ms")
    return doc


@pytest.mark.parametrize("case", sorted(CLI_OUTPUTS), ids=lambda c: c.replace(" ", "-"))
def test_cli_outputs_unchanged(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    assert cli_output(capsys, monkeypatch, case) == CLI_OUTPUTS[case]["output"]


def test_a_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path, hyper_n4):
    # Every pin, forward then backward in one process, with a usage error
    # and a help text between cases: each output still equals its pin.
    monkeypatch.chdir(tmp_path)
    cases = sorted(CLI_OUTPUTS) + sorted(LADDER_OUTPUTS)
    for case in cases + cases[::-1]:
        if case in CLI_OUTPUTS:
            assert cli_output(capsys, monkeypatch, case) == CLI_OUTPUTS[case]["output"], case
        else:
            assert ladder_output(capsys, monkeypatch, hyper_n4, case) == LADDER_OUTPUTS[case], case
        with pytest.raises(SystemExit) as exc:
            main(["rate-region", "--T", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["rate-region", "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


# The benchmark's line-ladder jobs with their traced counts; read, never written.
GOLDEN_LADDER = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden.json").read_text()
)["line-ladder"]["jobs"]


@pytest.mark.parametrize("job", sorted(GOLDEN_LADDER), ids=lambda j: j.replace(" ", "-"))
def test_ladder_extraction_calls_match_golden_counts(capsys, monkeypatch, job):
    # One extraction call per walked path, with the cycles each returns: a
    # change to either moves the benchmark's pinned path and candidate counts.
    command, net, T, k, algorithm = job.split()
    extract = cycles_mod.path_to_cycles
    sizes = []

    def spy(*args, **kwargs):
        out = extract(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(cycles_mod, "path_to_cycles", spy)
    net_doc = gen_line(capsys, monkeypatch, int(net[1:]), 1)
    argv = [command, "--T", T[1:], "--algorithm", algorithm, "--max-length", k[1:]]
    code, _ = run_cli(capsys, monkeypatch, argv, stdin_doc=net_doc)
    assert code == 0
    traced = GOLDEN_LADDER[job]["traced"]
    assert (len(sizes), sum(sizes)) == (traced["cycles.paths"], traced["cycles.candidates"])


def test_rate_region_reference(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(
        capsys, monkeypatch,
        ["rate-region", "--T", "1", "--algorithm", "incremental", "--max-length", "4"],
        stdin_doc=net_doc,
    )
    assert code == 0
    rates = {tuple(g["rate"]) for g in doc["generators"]}
    assert rates == {
        ("0/1", "1/1", "0/1", "0/1"),
        ("0/1", "0/1", "1/1", "0/1"),
        ("1/1", "0/1", "0/1", "1/1"),
        ("1/2", "1/2", "1/2", "1/2"),
    }
    assert all("witness" in g for g in doc["generators"])
    assert doc["provenance"]["regime"] == "exact"


def test_region_feeds_achievable(capsys, monkeypatch, tmp_path):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, region_doc = run_cli(
        capsys, monkeypatch,
        ["rate-region", "--T", "1", "--algorithm", "maximal-subgraph", "--max-length", "4"],
        stdin_doc=net_doc,
    )
    assert code == 0
    rpath = tmp_path / "region.json"
    rpath.write_text(json.dumps(region_doc))
    code, doc = run_cli(
        capsys, monkeypatch,
        ["achievable", "--region", str(rpath), "--rate", "1/2,1/2,1/2,1/2"],
    )
    assert code == 0 and doc["achievable"] is True
    weights = [F(w) for w in doc["combination"]["weights"]]
    assert sum(weights) == 1
    gens = [[F(x) for x in g] for g in doc["combination"]["generators"]]
    mix = [sum(w * g[d] for w, g in zip(weights, gens)) for d in range(4)]
    assert all(m >= F(1, 2) for m in mix)

    code, doc = run_cli(
        capsys, monkeypatch,
        ["achievable", "--region", str(rpath), "--rate", "3/5,3/5,3/5,3/5"],
    )
    assert code == 0 and doc["achievable"] is False


def test_framed_region_cli(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(capsys, monkeypatch, ["framed-region"], stdin_doc=net_doc)
    assert code == 0
    rates = {tuple(g["rate"]) for g in doc["generators"]}
    assert rates == {
        ("1/1", "0/1", "0/1", "1/1"),
        ("0/1", "1/1", "0/1", "0/1"),
        ("0/1", "0/1", "1/1", "0/1"),
    }


def test_cycles_cli_johnson(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(
        capsys, monkeypatch,
        ["cycles", "--T", "1", "--algorithm", "johnson", "--max-length", "1"],
        stdin_doc=net_doc,
    )
    assert code == 0
    assert doc["complete"] is True
    assert len(doc["cycles"]) == 6
    for c in doc["cycles"]:
        assert c["blocks"][0] == c["blocks"][-1]


@pytest.mark.parametrize("algorithm, k, search", [
    ("incremental", 4, lambda net: cycles_mod.algorithm_a(net, 1, 4)),
    ("johnson", 3, lambda net: cycles_mod.johnson_cycles(delaysched.build(net, 1), max_len=3)),
], ids=["incremental", "johnson"])
def test_cycles_cli_rates_are_each_cycles_own(capsys, monkeypatch, algorithm, k, search):
    # The rates are read over one denominator for all cycles, of mixed
    # lengths; each must reduce to the rate of its cycle alone.
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(
        capsys, monkeypatch,
        ["cycles", "--T", "1", "--algorithm", algorithm, "--max-length", str(k)],
        stdin_doc=net_doc,
    )
    assert code == 0
    cycles = search(network_from_json(net_doc)).cycles
    assert len({len(c) for c in cycles}) > 1
    assert [c["rate"] for c in doc["cycles"]] == [
        [format_rate(r) for r in cycles_mod.closed_path_rate(c, 1, 4)]
        for c in cycles
    ]


def test_cycles_cli_converts_each_distinct_block_once(capsys, monkeypatch):
    # Johnson's cycles share their blocks; each distinct block is turned
    # into rows once, and every cycle prints the rows of its own blocks.
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    to_rows = cli.block_to_rows
    calls = []

    def spy(bits, num_links, T):
        calls.append(bits)
        return to_rows(bits, num_links, T)

    monkeypatch.setattr(cli, "block_to_rows", spy)
    code, doc = run_cli(
        capsys, monkeypatch,
        ["cycles", "--T", "2", "--algorithm", "johnson", "--max-length", "2"],
        stdin_doc=net_doc,
    )
    assert code == 0
    cycles = cycles_mod.johnson_cycles(delaysched.build(network_from_json(net_doc), 2),
                                       max_len=2).cycles
    assert len(doc["cycles"]) == len(cycles) > 500
    assert sorted(calls) == sorted({b for c in cycles for b in c})
    assert [c["blocks"] for c in doc["cycles"]] == [
        [to_rows(b, 4, 2) for b in c] for c in cycles
    ]


def test_verify_schedule_cli(capsys, monkeypatch, tmp_path):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    sched = {"period": 2, "active": {"l1": [0], "l2": [1], "l3": [1], "l4": [0]}}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(sched))
    code, doc = run_cli(
        capsys, monkeypatch, ["verify-schedule", "--schedule", str(spath)],
        stdin_doc=net_doc,
    )
    assert code == 0
    assert doc["collision_free"] is False
    assert doc["rate"] == ["0/1", "1/2", "0/1", "1/2"]
    bad = [d for d in doc["diagnoses"] if not d["collision_free"]]
    assert {(d["link"], d["t"]) for d in bad} == {("l1", 0), ("l3", 1)}


# verify-schedule outputs for the CLI's schedule documents, recorded before
# the diagnoses, verify and rate_vector moved to one slot walk:
# (collision_free, [(link, t, collision_free)], rate).
VERIFY_SCHEDULE_OUTPUTS = [
    ("L4", {"period": 2, "active": {"l1": [0], "l2": [1], "l3": [1], "l4": [0]}},
     (False, [("l1", 0, False), ("l2", 1, True), ("l3", 1, False), ("l4", 0, True)],
      ["0/1", "1/2", "0/1", "1/2"])),
    ("L4", {"period": 1, "active": {"l1": [0]}},
     (True, [("l1", 0, True)], ["1/1", "0/1", "0/1", "0/1"])),
    ("hyper_n4", {"period": 3, "active": {"l1": [0], "l2": [0, 1], "l3": [1, 2], "l4": [2]}},
     (False, [("l1", 0, True), ("l2", 0, True), ("l2", 1, False), ("l3", 1, False),
              ("l3", 2, True), ("l4", 2, True)], ["1/3", "1/3", "1/3", "1/3"])),
]


@pytest.mark.parametrize("net, sched, expected", VERIFY_SCHEDULE_OUTPUTS,
                         ids=["L4-period-2", "L4-period-1", "hyper_n4-period-3"])
def test_verify_schedule_outputs_unchanged(capsys, monkeypatch, tmp_path, hyper_n4,
                                           net, sched, expected):
    net_doc = network_to_json(hyper_n4) if net == "hyper_n4" else gen_line(capsys, monkeypatch, 4, 1)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(sched))
    code, doc = run_cli(capsys, monkeypatch, ["verify-schedule", "--schedule", str(spath)],
                        stdin_doc=net_doc)
    assert code == 0
    diagnoses = [(d["link"], d["t"], d["collision_free"]) for d in doc["diagnoses"]]
    assert (doc["collision_free"], diagnoses, doc["rate"]) == expected
    assert all(len(d) == 3 for d in doc["diagnoses"])


def test_window_rate_on_a_network_with_no_links_exits_2(capsys, monkeypatch):
    # No link bounds the symmetric rate, so there is none to report.
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"links": [], "collisions": {}, "delays": []})))
    assert main(["window-rate", "--T", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "unbounded" in err


def test_window_rate_cli(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    for T, expected in ((1, "1/4"), (2, "1/3"), (3, "3/8")):
        code, doc = run_cli(
            capsys, monkeypatch, ["window-rate", "--T", str(T)], stdin_doc=net_doc
        )
        assert code == 0
        assert doc["rate"] == expected


def test_reduce_pipeline(capsys, monkeypatch):
    doc = {
        "links": ["l1", "l2", "l3", "l4"],
        "collisions": {"l1": [["l2"], ["l3"]], "l2": [["l3"], ["l4"]],
                       "l3": [["l4"]], "l4": []},
        "delays": [["l1", "l2", 1], ["l1", "l3", 2], ["l2", "l3", 1],
                   ["l2", "l4", 5], ["l3", "l4", 1]],
    }
    code, out = run_cli(
        capsys, monkeypatch, ["reduce", "--assignment", "0,1,2,3"], stdin_doc=doc
    )
    assert code == 0
    assert out["g"] == 3
    assert out["character"] == 1
    # The reduced document round-trips into other subcommands.
    code, char_doc = run_cli(capsys, monkeypatch, ["character"], stdin_doc=out)
    assert code == 0 and char_doc["character"] == 1


@pytest.mark.parametrize("assignment", [None, "0,1"])
def test_reduce_records_the_input_fingerprint(capsys, monkeypatch, assignment):
    doc = {
        "links": ["a", "b"],
        "collisions": {"a": [["b"]], "b": [["a"]]},
        "delays": [["a", "b", 2], ["b", "a", -4]],
    }
    argv = ["reduce"] + (["--assignment", assignment] if assignment else [])
    code, out = run_cli(capsys, monkeypatch, argv, stdin_doc=doc)
    assert code == 0
    source = network_fingerprint(network_from_json(doc))
    assert out["manifest"]["network_sha256"] == source
    # Both runs change the network, so the output's own hash differs.
    assert network_fingerprint(network_from_json(out)) != source


@pytest.mark.parametrize("assignment, message", [
    ("", "bad assignment ''"),
    ("1,x", "bad assignment '1,x'"),
    ("1", "assignment length does not match link count"),
], ids=["empty", "not-a-number", "short"])
def test_reduce_with_a_bad_assignment_exits_2(capsys, monkeypatch, assignment, message):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": [["a", "b", 2]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["reduce", "--assignment", assignment]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_framed_region_with_a_collision_key_that_names_no_link_exits_2(capsys, monkeypatch):
    # A typo'd profile key must not drop its collision set and run on.
    doc = {"links": ["l1", "l2"], "collisions": {"l1": [["l2"]], "L2": [["l1"]]},
           "delays": [["l1", "l2", 0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["framed-region"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "collision profile names unknown link 'L2'" in err


def test_schedgraph_with_an_empty_window_exits_2(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    assert main(["schedgraph", "--T", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "window length must be >= 1" in err


def test_verify_schedule_unknown_link_exits_2(capsys, monkeypatch, tmp_path):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps({"period": 1, "active": {"zz": [0]}}))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    assert main(["verify-schedule", "--schedule", str(spath)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad schedule document: unknown link 'zz'" in err


def test_determinism_modulo_wall_time(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    outputs = []
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
        code = main(["rate-region", "--T", "1", "--algorithm", "incremental",
                     "--max-length", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        doc["manifest"].pop("wall_time_ms")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_exit_code_on_malformed_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    assert main(["character"]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"links": ["a"]})))
    assert main(["character"]) == 2
    repeated = {"links": ["a", "b"], "collisions": {"a": [["b"]]},
                "delays": [["a", "b", 1], ["a", "b", 2]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(repeated)))
    assert main(["character"]) == 2


def test_exit_code_on_budget_truncation_strict(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(
        capsys, monkeypatch,
        ["cycles", "--T", "1", "--algorithm", "johnson", "--budget", "0",
         "--strict"],
        stdin_doc=net_doc,
    )
    assert code == 3
    assert doc["complete"] is False
    # Without --strict the same truncation exits 0 but stays flagged.
    code, doc = run_cli(
        capsys, monkeypatch,
        ["cycles", "--T", "1", "--algorithm", "johnson", "--budget", "0"],
        stdin_doc=net_doc,
    )
    assert code == 0 and doc["complete"] is False


@pytest.mark.parametrize("budget", ["nan", "-1", "-0.001"])
@pytest.mark.parametrize("algorithm", ["johnson", "incremental", "maximal-subgraph"])
def test_bad_budget_exits_2(capsys, monkeypatch, budget, algorithm):
    # NaN compares false with every time, so it would never expire; a
    # negative budget would return an empty truncated result.
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    argv = ["cycles", "--T", "1", "--algorithm", algorithm, "--max-length", "2",
            "--budget", budget]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "budget must be a non-negative number of seconds" in err


def test_cap_override_via_environment(capsys, monkeypatch):
    links = [f"l{i}" for i in range(13)]
    net_doc = {"links": links, "collisions": {}, "delays": []}
    code, _ = run_cli(
        capsys, monkeypatch, ["schedgraph", "--T", "2"], stdin_doc=net_doc
    )
    assert code == 2  # 26 bits over the default cap
    # Five-link chain, each inner link colliding with both neighbours at -1/+1.
    chain = [f"l{i}" for i in range(1, 6)]
    collisions = {l: [] for l in chain}
    delays = []
    for i in range(1, 4):
        collisions[chain[i]] = [[chain[i - 1], chain[i + 1]]]
        delays += [[chain[i], chain[i - 1], -1], [chain[i], chain[i + 1], 1]]
    chain_doc = {"links": chain, "collisions": collisions, "delays": delays}
    code, _ = run_cli(
        capsys, monkeypatch, ["schedgraph", "--maximal", "--T", "3"], stdin_doc=chain_doc
    )
    assert code == 2  # hyperedge chain: maximal sets of a 30-bit doubled window
    # A binary window takes the uncapped Bron-Kerbosch search, so the cap
    # below is window-rate's own check.
    line_doc = gen_line(capsys, monkeypatch, 4, 1)
    code, doc = run_cli(capsys, monkeypatch, ["window-rate", "--T", "4"], stdin_doc=line_doc)
    assert code == 0 and doc["rate"] == "2/5"
    monkeypatch.setenv("DELAYSCHED_CAP_BITS", "12")
    code, _ = run_cli(
        capsys, monkeypatch, ["schedgraph", "--T", "1"], stdin_doc=net_doc
    )
    assert code == 2  # 13 bits over the tightened cap
    code, _ = run_cli(capsys, monkeypatch, ["window-rate", "--T", "4"], stdin_doc=line_doc)
    assert code == 2  # line network L4 T4: 16 bits over the tightened cap


def test_cap_bits_that_is_not_an_int_exits_2_naming_the_variable(capsys, monkeypatch):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    monkeypatch.setenv("DELAYSCHED_CAP_BITS", "abc")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    assert main(["schedgraph", "--T", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: DELAYSCHED_CAP_BITS must be an int, got 'abc'" in err


def test_maximal_window_past_the_recursion_limit(capsys, monkeypatch):
    # One free link at T 600: a 1,200-bit doubled window, one maximal edge.
    free_doc = {"links": ["a"], "collisions": {}, "delays": []}
    code, doc = run_cli(
        capsys, monkeypatch, ["schedgraph", "--maximal", "--T", "600"], stdin_doc=free_doc
    )
    assert code == 0 and doc["maximal_edges"] == 1


def _subcommand_argv(capsys, monkeypatch, tmp_path, command):
    """Arguments and standard input for a small run of one subcommand."""
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    if command == "gen-line":
        return ["gen-line", "--L", "4", "--K", "1"], None
    if command in ("schedgraph", "window-rate"):
        return [command, "--T", "1"], net_doc
    if command in ("cycles", "rate-region"):
        return [command, "--T", "1", "--algorithm", "incremental", "--max-length", "2"], net_doc
    if command == "verify-schedule":
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"period": 1, "active": {"l1": [0]}}))
        return [command, "--schedule", str(spath)], net_doc
    if command == "achievable":
        code, region_doc = run_cli(capsys, monkeypatch, ["framed-region"], stdin_doc=net_doc)
        assert code == 0
        rpath = tmp_path / "region.json"
        rpath.write_text(json.dumps(region_doc))
        return [command, "--region", str(rpath), "--rate", "0,0,0,0"], None
    return [command], net_doc


@pytest.mark.parametrize("command", [
    "gen-line", "character", "reduce", "schedgraph", "cycles", "rate-region",
    "framed-region", "verify-schedule", "achievable", "window-rate",
])
def test_manifest_names_the_subcommand(capsys, monkeypatch, tmp_path, command):
    argv, stdin_doc = _subcommand_argv(capsys, monkeypatch, tmp_path, command)
    code, doc = run_cli(capsys, monkeypatch, argv, stdin_doc=stdin_doc)
    assert code == 0
    assert doc["manifest"]["command"] == command
    assert "command" not in doc["manifest"]["parameters"]


def test_achievable_rejects_wrong_rate_dimension(capsys, monkeypatch, tmp_path):
    argv, _ = _subcommand_argv(capsys, monkeypatch, tmp_path, "achievable")
    assert main(argv[:-1] + ["0,0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "rate dimension does not match region links" in err


def test_achievable_records_the_region_document_hash(capsys, monkeypatch, tmp_path):
    # The hash of the parsed region document's canonical form, as networks get theirs.
    argv, _ = _subcommand_argv(capsys, monkeypatch, tmp_path, "achievable")
    code, out = run_cli(capsys, monkeypatch, argv)
    assert code == 0
    region = delaysched.region.region_from_json(json.loads(Path(argv[2]).read_text()))
    blob = json.dumps(delaysched.region.region_to_json(region), sort_keys=True,
                      separators=(",", ":"))
    assert out["manifest"]["network_sha256"] == hashlib.sha256(blob.encode()).hexdigest()


def test_achievable_output_ignores_the_region_run_time(capsys, monkeypatch, tmp_path):
    # Two runs of one rate-region differ only in their manifest's wall time.
    argv, _ = _subcommand_argv(capsys, monkeypatch, tmp_path, "achievable")
    region_doc = json.loads(Path(argv[2]).read_text())
    outputs = []
    for wall_time_ms in (0, 12345):
        region_doc["manifest"]["wall_time_ms"] = wall_time_ms
        Path(argv[2]).write_text(json.dumps(region_doc))
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["manifest"].pop("wall_time_ms")
        outputs.append(doc)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("rate, weights", [
    ("0,0,0,0", ["1/1", "0/1", "0/1"]),
    ("1/2,0,0,0", ["0/1", "0/1", "1/1"]),
], ids=["every-generator-covers", "one-generator-covers"])
def test_achievable_gives_unit_weight_to_the_first_covering_generator(
    capsys, monkeypatch, tmp_path, rate, weights
):
    # The framed L4 T1 generators, in order: (0,0,1,0), (0,1,0,0), (1,0,0,1).
    argv, _ = _subcommand_argv(capsys, monkeypatch, tmp_path, "achievable")
    code, doc = run_cli(capsys, monkeypatch, argv[:-1] + [rate])
    assert code == 0 and doc["achievable"] is True
    assert doc["combination"]["generators"] == [
        ["0/1", "0/1", "1/1", "0/1"], ["0/1", "1/1", "0/1", "0/1"], ["1/1", "0/1", "0/1", "1/1"],
    ]
    assert doc["combination"]["weights"] == weights


@pytest.mark.parametrize("generator", [
    {"rate": ["1/2"]},
    {"rate": ["1/2", "1/2"], "witness": [["1"]]},
    {"rate": "12"},
    {"rate": ["1/2", "1/2"], "witness": ["10", "01"]},
    {"rate": ["-1/2", "3/2"]},
    {"rate": ["1/2", "1/2"], "witness": [["1", "0"]]},
    {"rate": ["1", "0"], "witness": [["0", "1"], ["0", "1"]]},
], ids=["rate-short", "witness-block-short", "rate-string", "witness-block-string",
        "rate-outside-0-1", "witness-not-closed", "witness-rate-not-the-rate"])
def test_achievable_malformed_region_exits_2(capsys, monkeypatch, tmp_path, generator):
    # Two links, but one generator entry or one witness row, or a string
    # where a list belongs (which would be read a character at a time), or
    # a rate no schedule has, or a witness that is no closed block path or
    # does not give its generator's rate.
    rpath = tmp_path / "region.json"
    rpath.write_text(json.dumps({"links": ["l1", "l2"], "T": 1, "generators": [generator]}))
    assert main(["achievable", "--region", str(rpath), "--rate", "1/2,1/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad region document" in err


@pytest.mark.parametrize("T", [1.9, True, 0, -1, "2", None], ids=repr)
@pytest.mark.parametrize("witness", [False, True], ids=["bare", "witnessed"])
def test_achievable_region_with_a_bad_T_exits_2(capsys, monkeypatch, tmp_path, T, witness):
    generator = {"rate": ["1/2", "1/2"]}
    if witness:
        generator["witness"] = [["1", "0"], ["1", "0"]]
    rpath = tmp_path / "region.json"
    rpath.write_text(json.dumps({"links": ["l1", "l2"], "T": T, "generators": [generator]}))
    assert main(["achievable", "--region", str(rpath), "--rate", "1/4,1/4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad region document" in err


@pytest.mark.parametrize("rate", [["1/0", "1/2"], [0.5, "1/2"]], ids=["zero-denominator", "number"])
def test_achievable_region_with_a_bad_rate_exits_2(capsys, monkeypatch, tmp_path, rate):
    rpath = tmp_path / "region.json"
    rpath.write_text(json.dumps({"links": ["l1", "l2"], "T": 1, "generators": [{"rate": rate}]}))
    assert main(["achievable", "--region", str(rpath), "--rate", "1/4,1/4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad region document" in err


def test_achievable_query_with_a_zero_denominator_exits_2(capsys, monkeypatch, tmp_path):
    argv, _ = _subcommand_argv(capsys, monkeypatch, tmp_path, "achievable")
    assert main(argv[:-1] + ["1/0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad rate '1/0,0'" in err


def test_network_with_non_list_delays_exits_2(capsys, monkeypatch):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": 5}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["character"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "delays must be a list" in err


@pytest.mark.parametrize("node_delays, endpoints, message", [
    ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], {"a": [0, -1], "b": [1, -2]},
     "node index -1 not in range(3)"),
    ([[0, 1], [1, 0]], {"a": [0, True], "b": [1, 0]}, "node index True not in range(2)"),
    ([[0, True], [True, 0]], {"a": [0, 1], "b": [1, 0]},
     "matrix entry [0][1] = True is not an integer"),
], ids=["endpoint-negative", "endpoint-bool", "matrix-entry-bool"])
def test_network_with_bad_node_delays_exits_2(capsys, monkeypatch, node_delays, endpoints,
                                              message):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]},
           "node_delays": node_delays, "link_endpoints": endpoints}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["character"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"bad node_delays/link_endpoints: {message}" in err


@pytest.mark.parametrize("doc", [
    {"links": "ab", "collisions": {"a": [["b"]]}, "delays": [["a", "b", 1]]},
    {"links": ["a", "b"], "collisions": {"a": "b"}, "delays": [["a", "b", 1]]},
], ids=["links-string", "collisions-string"])
def test_network_with_a_string_where_a_list_belongs_exits_2(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["character"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be a list" in err


@pytest.mark.parametrize("sched", [
    {"period": 1, "active": [1]},
    {"period": True, "active": {"l1": [0]}},
    {"period": 2, "active": {"l1": [True]}},
], ids=["active-list", "period-bool", "slot-bool"])
def test_verify_schedule_malformed_document_exits_2(capsys, monkeypatch, tmp_path, sched):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(sched))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    assert main(["verify-schedule", "--schedule", str(spath)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad schedule document" in err


@pytest.mark.parametrize("command", ["cycles", "rate-region"])
@pytest.mark.parametrize("algorithm", ["incremental", "maximal-subgraph"])
def test_layered_algorithm_requires_max_length(capsys, monkeypatch, command, algorithm):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    assert main([command, "--T", "1", "--algorithm", algorithm]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--max-length is required for the {algorithm} algorithm" in err


@pytest.mark.parametrize("command", ["cycles", "rate-region"])
@pytest.mark.parametrize("algorithm", ["johnson", "incremental", "maximal-subgraph"])
def test_negative_max_length_exits_2(capsys, monkeypatch, command, algorithm):
    net_doc = gen_line(capsys, monkeypatch, 4, 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net_doc)))
    argv = [command, "--T", "1", "--algorithm", algorithm, "--max-length", "-1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be >= 0" in err


def test_unknown_flag_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["character", "--bogus"])
    assert exc.value.code == 2


def test_every_subcommand_has_a_description_in_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    names = re.search(r"\{([a-z,-]+)\}", text).group(1).split(",")
    assert len(names) == 10
    for name in names:
        assert re.search(rf"^ +{name} +\S", text, re.M), name


def test_help_wraps_to_the_terminal_width_of_each_call(capsys, monkeypatch):
    # The parser is built once, but help reads the width when it is printed,
    # so each text equals that of a freshly built parser.
    texts = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["rate-region", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(["rate-region", "--help"])
        assert capsys.readouterr().out == texts[-1]
    narrow, wide = (max(map(len, text.splitlines())) for text in texts)
    assert narrow < wide


def test_import_builds_no_parser_and_repeated_calls_build_one():
    # ``import delaysched.cli`` builds none, so importing it costs the same,
    # and three ``main`` calls build one parser tree: the top-level parser
    # and one per subcommand.
    src = os.path.dirname(os.path.dirname(delaysched.__file__))
    probe = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import delaysched.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert delaysched.cli.main(['gen-line', '--L', '2', '--K', '1']) == 0\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    tree = 1 + len(cli.COMMANDS)
    assert out == ["0", str(tree), str(tree), str(tree)]


def test_a_closed_stdout_exits_1_without_a_traceback():
    # The reader of the pipe is gone before the output is written, as after
    # ``delaysched gen-line --L 30 --K 1 | head -c 10``.
    src = os.path.dirname(os.path.dirname(delaysched.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "delaysched.cli", "gen-line", "--L", "30", "--K", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_import_loads_only_the_standard_library():
    # Every CLI call pays for what ``import delaysched`` loads.
    src = os.path.dirname(os.path.dirname(delaysched.__file__))
    probe = (
        "import sys; before = set(sys.modules); import delaysched; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    foreign = {m.split(".")[0] for m in out} - set(sys.stdlib_module_names) - {"delaysched"}
    assert not foreign
