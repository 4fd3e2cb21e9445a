import pytest

from delaysched import (
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
    validate,
)


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


@pytest.mark.parametrize("d", [1.5, "1", True])
def test_network_from_json_rejects_non_integer_delay(d):
    doc = {"links": ["a", "b"], "collisions": {"a": [["b"]]}, "delays": [["a", "b", d]]}
    with pytest.raises(InvalidNetworkError, match="not an integer"):
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


def test_malformed_documents_rejected():
    with pytest.raises(InvalidNetworkError):
        network_from_json({"links": ["a"]})
    with pytest.raises(InvalidNetworkError):
        network_from_json({"links": ["a", "b"], "collisions": {}, "delays": [["a", "b", 0.5]]})
