import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import delaysched
from delaysched import (
    CapExceededError,
    InvalidNetworkError,
    apply_vertex_assignment,
    character,
    collision_support,
    gcd_reduce,
    is_binary,
    line_network,
    make_network,
    network_from_json,
    network_to_json,
    span_slots,
    validate,
)
from delaysched import network as network_mod, window as window_mod
from delaysched.network import parse_rate

from conftest import random_network


def test_error_types_are_importable_from_the_package_with_their_bases():
    # Each type lives in the one module that raises it.
    assert InvalidNetworkError is network_mod.InvalidNetworkError
    assert CapExceededError is window_mod.CapExceededError
    assert InvalidNetworkError.__bases__ == (ValueError,)
    assert CapExceededError.__bases__ == (RuntimeError,)
    assert {"InvalidNetworkError", "CapExceededError"} <= set(delaysched.__all__)


def test_line_network_profile_matches_reference(line41):
    assert line41.links == ("l1", "l2", "l3", "l4")
    assert line41.profile("l1") == (frozenset({"l2"}), frozenset({"l3"}))
    assert line41.profile("l2") == (frozenset({"l3"}), frozenset({"l4"}))
    assert line41.profile("l3") == (frozenset({"l4"}),)
    assert line41.profile("l4") == ()
    assert line41.delays == {
        ("l1", "l2"): 1, ("l1", "l3"): 0,
        ("l2", "l3"): 1, ("l2", "l4"): 0,
        ("l3", "l4"): 1,
    }


def test_line_network_k2_profile():
    net = line_network(4, 2)
    assert set(net.profile("l1")) == {frozenset({l}) for l in ("l2", "l3", "l4")}
    assert set(net.profile("l4")) == {frozenset({"l3"})}


def test_validate_accepts_line(line41):
    validate(line41)


def test_validate_rejects_duplicate_links():
    net = make_network(["a", "a"], {}, {})
    with pytest.raises(InvalidNetworkError, match="duplicate"):
        validate(net)


def test_validate_rejects_unknown_link_in_profile():
    net = make_network(["a"], {"a": [["ghost"]]}, {("a", "ghost"): 0})
    with pytest.raises(InvalidNetworkError, match="unknown link"):
        validate(net)


def test_validate_rejects_missing_support_delay():
    net = make_network(["a", "b"], {"a": [["b"]]}, {})
    with pytest.raises(InvalidNetworkError, match="missing delay"):
        validate(net)


def test_validate_rejects_bool_delay():
    net = make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): True})
    with pytest.raises(InvalidNetworkError, match="not an integer"):
        validate(net)


def test_validate_rejects_a_collision_key_that_names_no_link():
    net = make_network(["a", "b"], {"a": [["b"]], "B": [["a"]]}, {("a", "b"): 0})
    assert net.collisions["B"] == (frozenset({"a"}),)
    with pytest.raises(InvalidNetworkError, match="collision profile names unknown link 'B'"):
        validate(net)


_NODE_DELAYS = {"node_delays": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}


@pytest.mark.parametrize("doc, message", [
    # "L2" is a typo for "l2"; its collision set must not vanish unread.
    ({"links": ["l1", "l2"], "collisions": {"l1": [["l2"]], "L2": [["l1"]]},
      "delays": [["l1", "l2", 0]]},
     "collision profile names unknown link 'L2'"),
    ({"links": ["l1", "l2"], "collisions": {"l1": [["l2"]], "L2": [["l1"]]},
      **_NODE_DELAYS, "link_endpoints": {"l1": [0, 1], "l2": [1, 2]}},
     "collision profile names unknown link 'L2'"),
    ({"links": ["a", "b"], "collisions": {"a": [[]]}, "delays": []},
     "empty collision set in profile of 'a'"),
    ({"links": ["a"], "collisions": {"a": [["ghost"]]}, "delays": []},
     "collision set of 'a' references unknown link 'ghost'"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": [["a", "b"]]},
     r"malformed delay triple \['a', 'b'\]"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]}, **_NODE_DELAYS},
     "node_delays requires link_endpoints"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]}, **_NODE_DELAYS,
      "link_endpoints": {"a": [0, 3], "b": [1, 0]}},
     "bad node_delays/link_endpoints"),
    # Read from the matrix's end, this would load with delay (a, b) = 5 - 1.
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]},
      "node_delays": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
      "link_endpoints": {"a": [0, -1], "b": [1, -2]}},
     r"bad node_delays/link_endpoints: node index -1 not in range\(3\)"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]}, **_NODE_DELAYS,
      "link_endpoints": {"a": [0, True], "b": [1, 0]}},
     r"bad node_delays/link_endpoints: node index True not in range\(3\)"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]},
      "node_delays": [[0, True], [True, 0]], "link_endpoints": {"a": [0, 1], "b": [1, 0]}},
     r"bad node_delays/link_endpoints: matrix entry \[0\]\[1\] = True is not an integer"),
    ({"links": ["a", "b"], "collisions": {"a": [["b"]]},
      "node_delays": [[0, 1.5], [1, 0]], "link_endpoints": {"a": [0, 1], "b": [1, 0]}},
     r"bad node_delays/link_endpoints: matrix entry \[0\]\[1\] = 1.5 is not an integer"),
    ([{"links": ["a"]}], "malformed network document"),
], ids=["unknown-collision-key", "unknown-collision-key-node-delays", "empty-collision-set",
        "collision-set-unknown-link", "delay-pair", "node-delays-without-endpoints",
        "endpoint-out-of-range", "endpoint-negative", "endpoint-bool", "matrix-entry-bool",
        "matrix-entry-float", "json-array"])
def test_network_from_json_rejects_a_malformed_document(doc, message):
    with pytest.raises(InvalidNetworkError, match=message):
        network_from_json(doc)


def test_node_delays_error_names_the_same_endpoint_under_every_hash_seed():
    # Link a collides with b and c, whose senders 9 and 7 lie outside the
    # 2x2 matrix; walking a's support as a set named either one by seed.
    doc = {"links": ["a", "b", "c"], "collisions": {"a": [["b"], ["c"]]},
           "node_delays": [[0, 1], [1, 0]],
           "link_endpoints": {"a": [0, 1], "b": [9, 0], "c": [7, 0]}}
    probe = (
        "import json, sys\n"
        "from delaysched import network_from_json\n"
        "try:\n"
        "    network_from_json(json.loads(sys.argv[1]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(delaysched.__file__))
    messages = {
        subprocess.run(
            [sys.executable, "-c", probe, json.dumps(doc)], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        ).stdout
        for seed in range(6)
    }
    assert messages == {"bad node_delays/link_endpoints: node index 9 not in range(2)\n"}


@pytest.mark.parametrize("L, K", [(4, 1.5), (2.0, 1), (True, 1), (4, True), ("4", 1)],
                         ids=repr)
def test_line_network_rejects_a_size_that_is_not_an_int(L, K):
    # A float K would silently build the network of its floor.
    with pytest.raises(InvalidNetworkError, match="line network needs int L and K"):
        line_network(L, K)


def test_line_network_rejects_no_links():
    with pytest.raises(InvalidNetworkError, match="line network needs L >= 1 and K >= 1"):
        line_network(0, 1)


@pytest.mark.parametrize("d", [1.5, "1", True])
def test_network_from_json_rejects_non_integer_delay(d):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": [["a", "b", d]]}
    with pytest.raises(InvalidNetworkError, match="not an integer"):
        network_from_json(doc)


@pytest.mark.parametrize("first, second", [(1, 2), (1.5, 1)])
def test_network_from_json_rejects_repeated_delay_pair(first, second):
    # Neither triple may silently win, and an earlier float must not hide.
    doc = {
        "links": ["a", "b"],
        "collisions": {"a": [["b"]]},
        "delays": [["a", "b", first], ["a", "b", second]],
    }
    with pytest.raises(InvalidNetworkError, match=r"repeated delay for pair \('a', 'b'\)"):
        network_from_json(doc)


def test_reading_unspecified_delay_is_an_error(line41):
    with pytest.raises(InvalidNetworkError, match="unspecified"):
        line41.delay("l4", "l1")


def test_is_binary(line41, hyper_n4):
    assert is_binary(line41)
    assert not is_binary(hyper_n4)
    assert is_binary(make_network(["a", "b"], {}, {}))


@pytest.mark.parametrize(
    "L,K,expected",
    [(4, 1, 1), (7, 1, 1), (4, 2, 1), (5, 3, 2), (6, 4, 3), (4, 4, 3)],
)
def test_character_of_line_networks(L, K, expected):
    # max(min(L, K) - 1, 1) in closed form
    assert character(line_network(L, K)) == expected


def test_character_hyper_and_degenerate(hyper_n4):
    assert character(hyper_n4) == 1
    zero = make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): 0})
    assert character(zero) == 0
    assert character(make_network(["a"], {}, {})) == 0


def test_span_slots_reference(line41, hyper_n4):
    # One less than the most slots a collision set spans with its own link.
    assert span_slots(line41) == character(line41) == 1
    assert span_slots(hyper_n4) == 2 * character(hyper_n4) == 2  # offsets -1 and +1
    assert span_slots(make_network(["a"], {}, {})) == 0
    assert span_slots(make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): 0})) == 0
    # b with {a, c} at +1 and +2: slots 0..2, so S = 2 = D*, where 2 D* = 4.
    chain = make_network(["a", "b", "c", "d"], {"b": [["a", "c"]], "c": [["b", "d"]]},
                         {("b", "a"): 1, ("b", "c"): 2, ("c", "b"): 1, ("c", "d"): 2})
    assert span_slots(chain) == character(chain) == 2
    # A set's span counts its link's own slot: {b} at +3 alone spans 0..3.
    far = make_network(["a", "b", "c"], {"a": [["b", "c"]]}, {("a", "b"): 3, ("a", "c"): 1})
    assert span_slots(far) == 3


def test_span_slots_is_the_character_on_binary_profiles_and_at_most_twice_it():
    for seed in range(200):
        net = random_network(random.Random(seed))
        if is_binary(net):
            assert span_slots(net) == character(net)
        else:
            assert character(net) <= span_slots(net) <= 2 * character(net)


def test_apply_vertex_assignment_reference(shifted_example):
    shifted = apply_vertex_assignment(
        shifted_example, {"l1": 4, "l2": 3, "l3": 2, "l4": 1}
    )
    assert shifted.delays == {
        ("l1", "l2"): 1, ("l1", "l3"): 0, ("l1", "l4"): -1,
        ("l2", "l1"): -1, ("l2", "l3"): 1, ("l2", "l4"): 0,
        ("l3", "l2"): -1, ("l3", "l4"): 1, ("l4", "l3"): -1,
    }
    assert character(shifted) == 1
    assert shifted.links == shifted_example.links
    assert shifted.collisions == shifted_example.collisions


def test_apply_vertex_assignment_identity(line41):
    same = apply_vertex_assignment(line41, {l: 0 for l in line41.links})
    assert same.delays == line41.delays


def test_apply_vertex_assignment_requires_all_links(line41):
    with pytest.raises(InvalidNetworkError, match="missing links"):
        apply_vertex_assignment(line41, {"l1": 1})


def test_apply_vertex_assignment_rejects_a_name_that_is_no_link():
    b = {"l1": 0, "l2": 0, "l3": 0, "zz": 1}
    with pytest.raises(InvalidNetworkError, match=r"names unknown links \['zz'\]"):
        apply_vertex_assignment(line_network(3, 1), b)


@pytest.mark.parametrize("shift", [0.5, 1.0, True, "1", None], ids=repr)
def test_apply_vertex_assignment_rejects_a_shift_that_is_not_an_int(line41, shift):
    # A float shift would give float delays, which build and gcd_reduce reject late.
    b = {l: 0 for l in line41.links} | {"l2": shift}
    with pytest.raises(InvalidNetworkError, match="vertex assignment shift of 'l2' is not an int"):
        apply_vertex_assignment(line41, b)


def test_gcd_pipeline_reference(gcd_example):
    assert character(gcd_example) == 5
    shifted = apply_vertex_assignment(
        gcd_example, {"l1": 0, "l2": 1, "l3": 2, "l4": 3}
    )
    assert set(shifted.delays.values()) <= {0, 3}
    reduced, g = gcd_reduce(shifted)
    assert g == 3
    assert set(reduced.delays.values()) <= {0, 1}
    assert character(reduced) == 1


def test_gcd_reduce_trivial_and_derived(line41):
    same, g = gcd_reduce(line41)
    assert g == 1 and same.delays == line41.delays

    net = make_network(
        ["a", "b", "c"],
        {"a": [["b"], ["c"]], "b": [["c"]]},
        {("a", "b"): 2, ("a", "c"): 4, ("b", "c"): -6},
    )
    reduced, g = gcd_reduce(net)
    assert g == 2
    assert reduced.delays == {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): -3}


def test_gcd_reduce_idempotent(gcd_example):
    shifted = apply_vertex_assignment(
        gcd_example, {"l1": 0, "l2": 1, "l3": 2, "l4": 3}
    )
    reduced, g = gcd_reduce(shifted)
    again, g2 = gcd_reduce(reduced)
    assert g == 3 and g2 == 1
    assert again.delays == reduced.delays


def test_gcd_reduce_all_zero_support():
    net = make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): 0})
    same, g = gcd_reduce(net)
    assert g == 1 and same.delays == net.delays


def test_gcd_character_scaling(gcd_example):
    shifted = apply_vertex_assignment(
        gcd_example, {"l1": 0, "l2": 1, "l3": 2, "l4": 3}
    )
    reduced, g = gcd_reduce(shifted)
    assert character(reduced) == character(shifted) // g


def test_collision_support(line41, hyper_n4):
    assert collision_support(hyper_n4)["l2"] == {"l1", "l3"}
    assert collision_support(line41) == {
        "l1": {"l2", "l3"}, "l2": {"l3", "l4"}, "l3": {"l4"}, "l4": frozenset(),
    }
    assert collision_support(make_network(["a"], {}, {})) == {"a": frozenset()}


def test_network_json_roundtrip(line41, hyper_n4):
    for net in (line41, hyper_n4):
        doc = network_to_json(net)
        back = network_from_json(doc)
        assert back == net


def test_node_delay_derivation_matches_line_form(line41):
    # Node delays |i - j| with link i running from node i to i+1 reproduce
    # the link-wise matrix 1 - |j - i - 1| on the collision support.
    L = 4
    doc = {
        "links": [f"l{i}" for i in range(1, L + 1)],
        "collisions": {
            f"l{i}": [[f"l{j}"] for j in range(1, L + 1) if j != i and abs(j - i - 1) <= 1]
            for i in range(1, L + 1)
        },
        "node_delays": [[abs(i - j) for j in range(L + 1)] for i in range(L + 1)],
        "link_endpoints": {f"l{i}": [i - 1, i] for i in range(1, L + 1)},
    }
    derived = network_from_json(doc)
    assert derived.delays == line41.delays


@pytest.mark.parametrize("delays", [5, {"a": 1}, "ab1"])
def test_network_from_json_rejects_non_list_delays(delays):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": delays}
    with pytest.raises(InvalidNetworkError, match="delays must be a list"):
        network_from_json(doc)


@pytest.mark.parametrize("links,collisions", [
    ("ab", {"a": [["b"]]}),
    (["a", "b"], {"a": "b"}),
    (["a", "b"], {"a": ["b"]}),
    (["a", "b"], [["b"]]),
], ids=["links-string", "collision-sets-string", "collision-set-string", "collisions-list"])
def test_network_from_json_rejects_a_string_where_a_list_belongs(links, collisions):
    doc = {"links": links, "collisions": collisions, "delays": [["a", "b", 1]]}
    with pytest.raises(InvalidNetworkError, match="must (be a list|map each link)"):
        network_from_json(doc)


@pytest.mark.parametrize("text", ["1/0", " 3/0 "])
def test_parse_rate_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rate(text)


@pytest.mark.parametrize("value", [0.5, 1, None, ["1/2"]])
def test_parse_rate_rejects_a_non_string(value):
    with pytest.raises(ValueError, match="rate must be a string"):
        parse_rate(value)


@pytest.mark.parametrize("text", ["1e1000000", "1E-5", " 2.5e3 ", "3/4e2"])
def test_parse_rate_refuses_exponent_notation(text):
    # Fraction computes 10**exponent exactly, so "1e1000000" took 0.36 s.
    with pytest.raises(ValueError, match="exponent notation"):
        parse_rate(text)


@pytest.mark.parametrize("text, want", [
    ("3/4", Fraction(3, 4)), (" -1/2 ", Fraction(-1, 2)), ("2", Fraction(2)),
    ("0.25", Fraction(1, 4)), ("1.", Fraction(1)),
])
def test_parse_rate_takes_fractions_and_plain_decimals(text, want):
    assert parse_rate(text) == want


def test_malformed_documents_rejected():
    with pytest.raises(InvalidNetworkError):
        network_from_json({"links": ["a"]})
    with pytest.raises(InvalidNetworkError):
        network_from_json({"links": ["a", "b"], "collisions": {}, "delays": [["a", "b", 0.5]]})
