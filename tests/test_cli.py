import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import delaysched
from delaysched.cli import main
from delaysched.network import network_fingerprint, network_from_json, network_to_json

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


@pytest.mark.parametrize("case", sorted(LADDER_OUTPUTS), ids=lambda c: c.replace(" ", "-"))
def test_ladder_outputs_unchanged(capsys, monkeypatch, hyper_n4, case):
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
    assert doc == LADDER_OUTPUTS[case]


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
