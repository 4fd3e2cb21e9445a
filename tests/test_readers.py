"""Every document reader raises ValueError, and nothing else, for a malformed
document.

A reader is a public name ending in ``_from_json``.  Each one needs an
entry in ``READERS``, so a reader added later fails
``test_every_reader_is_in_the_table`` until it joins, and then the table
and the seeded draw below hold it to the rule.
"""

import copy
import random

import pytest

import delaysched
from delaysched import line_network, network_to_json

NET = line_network(3, 1)

NON_MAPPINGS = [[], None, 5, "x"]

# Per reader: the arguments before the document, a valid document, its
# required keys, and wrong values for its members.
READERS = {
    "network_from_json": ((), network_to_json(NET), ("links", "delays"), {
        "links": ["l1", {"l1": 1}, 5, None],
        "collisions": [[], "x", {"l1": "l2"}, {"l1": [5]}, {"zz": []}],
        "delays": [{}, "x", [5], [["l1", "l2"]], [["l1", "l2", 1.5]], [["l1", "zz", 0]]],
    }),
    "schedule_from_json": ((NET,), {"period": 2, "active": {"l1": [0], "l3": [1]}}, ("period",), {
        "period": [0, True, 2.0, "2", None, []],
        "active": [[], "x", 5, {"zz": [0]}, {"l1": 0}, {"l1": "01"}, {"l1": [None]}],
    }),
    "region_from_json": ((), {"links": ["a", "b"], "T": 1, "generators": [
        {"rate": ["1", "0"], "witness": [["1", "0"], ["1", "0"]]}]}, ("links", "T", "generators"), {
        "links": ["ab", None, 5, ["a", "a"]],
        "T": [0, True, 1.0, "1", None],
        "generators": ["x", None, {"rate": ["1", "0"]}, [5], [None], [[]], [{}],
                       [{"witness": [["1", "0"], ["1", "0"]]}],
                       [{"rate": "10"}], [{"rate": [1, 0]}], [{"rate": ["1"]}],
                       [{"rate": ["2", "0"]}], [{"rate": ["1/0", "0"]}],
                       [{"rate": ["1", "0"], "witness": 5}],
                       [{"rate": ["1", "0"], "witness": [5, 5]}],
                       [{"rate": ["1", "0"], "witness": [["1", "0"]]}],
                       [{"rate": ["1", "0"], "witness": [[1, 0], [1, 0]]}],
                       [{"rate": ["1", "0"], "witness": [["10", "0"], ["10", "0"]]}],
                       [{"rate": ["1", "0"], "witness": [["0", "1"], ["0", "1"]]}]],
        "provenance": [5, "x", [1]],
    }),
}


def _malformed(name: str) -> list:
    """Non-mappings, the valid document without each required key, and the
    valid document with one member replaced by each of its wrong values."""
    _, valid, required, wrong = READERS[name]
    cases = list(NON_MAPPINGS)
    cases += [{k: v for k, v in valid.items() if k != key} for key in required]
    cases += [valid | {key: value} for key, values in wrong.items() for value in values]
    return cases


def _read(name: str, doc):
    return getattr(delaysched, name)(*READERS[name][0], doc)


def test_every_reader_is_in_the_table():
    readers = {name for name in delaysched.__all__ if name.endswith("_from_json")}
    assert readers == set(READERS)


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_reader_takes_its_valid_document(name):
    _read(name, copy.deepcopy(READERS[name][1]))


@pytest.mark.parametrize("name, doc", [
    pytest.param(name, doc, id=f"{name}-{i}")
    for name in READERS for i, doc in enumerate(_malformed(name))
])
def test_a_reader_raises_value_error_for_a_malformed_document(name, doc):
    with pytest.raises(ValueError):
        _read(name, doc)


# Per reader: a document with the string "ab" where its first list belongs.
MISPLACED_STRING = {
    "network_from_json": {"links": "ab", "delays": []},
    "schedule_from_json": {"period": 2, "active": {"l1": "ab"}},
    "region_from_json": {"links": "ab", "T": 1, "generators": []},
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_the_readers_report_a_misplaced_string_one_way(name):
    # Read a character at a time, "ab" would be two links or two slots.
    with pytest.raises(ValueError, match="must be a list, got 'ab'"):
        _read(name, MISPLACED_STRING[name])


# Small values, so that no drawn window length or period allocates much.
ATOMS = [None, True, False, 0, 1, 2, -1, 1.5, "", "x", "a", "b", "l1", "l2", "l3",
         "0", "1", "10", "01", "1/2", "1/0"]
KEYS = ["links", "T", "generators", "rate", "witness", "provenance", "period", "active",
        "collisions", "delays", "node_delays", "link_endpoints", "a", "l1", "l2", "zz"]


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(4) if depth else 0
    if kind == 0:
        return rng.choice(ATOMS)
    if kind == 1:
        return [_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {rng.choice(KEYS): _value(rng, depth - 1) for _ in range(rng.randrange(4))}


def _mutate(rng: random.Random, doc, depth: int):
    """``doc`` with one member, at some depth, replaced by a drawn value or dropped."""
    if not isinstance(doc, (dict, list)) or not doc or rng.random() < 0.3:
        return _value(rng, depth)
    doc = copy.copy(doc)
    key = rng.choice(list(doc) if isinstance(doc, dict) else range(len(doc)))
    if isinstance(doc, dict) and rng.random() < 0.2:
        del doc[key]
    else:
        doc[key] = _mutate(rng, doc[key], depth)
    return doc


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_reader_raises_nothing_but_value_error_on_drawn_documents(name):
    # Half the draws mutate the valid document, so that they reach past its first key.
    rng = random.Random(3500)
    valid = READERS[name][1]
    rejected = 0
    for _ in range(3000):
        doc = _mutate(rng, valid, 3) if rng.random() < 0.5 else _value(rng, 3)
        try:
            _read(name, doc)
        except ValueError:
            rejected += 1
    assert rejected > 1000
