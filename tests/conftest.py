"""Shared fixtures: reference networks and frozen adjacency data."""

from __future__ import annotations

import itertools
import random

import pytest

from delaysched import line_network, make_network, rate_vector, validate, verify
from delaysched.region import RegionDescription
from delaysched.schedule import PeriodicSchedule
from delaysched.window import block_from_rows

# Single-column blocks of the 4-link line network, in the customary order.
V_ROWS = {
    0: "0000", 1: "1000", 2: "0100", 3: "0010", 4: "0001",
    5: "1001", 6: "1100", 7: "0110", 8: "0011",
}


def v(i: int) -> int:
    """Block int for the i-th reference column (4 links, T = 1)."""
    return block_from_rows(list(V_ROWS[i]), 1)


# Adjacency of the T=1 scheduling graph of the 4-link line network,
# row = source, column = target, both indexed v0..v8.
EDGE_MATRIX_41 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 0, 1, 1, 1, 0, 0, 1],
    [1, 1, 1, 0, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 0, 0, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 0, 1, 1, 1, 0, 0, 1],
    [1, 1, 0, 0, 1, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 1, 0, 0],
    [1, 1, 1, 1, 0, 0, 1, 1, 0],
]

# Maximal-edge adjacency of the same graph, rows/columns v5..v8.
MAXIMAL_EDGE_MATRIX_41 = [
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 1, 0],
]

# First layer of the incremental construction, rows v5..v8, columns v0..v8.
U0_MATRIX_41 = [
    [0, 0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 1, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 1, 0, 0],
    [0, 1, 0, 1, 0, 0, 1, 1, 0],
]

# Second/third-layer right edge sets, rows v0..v8, columns v5..v8.
U1P_MATRIX_41 = [
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 1, 0],
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 1, 0],
]
U2P_MATRIX_41 = [
    [0, 0, 1, 1],
    [0, 0, 0, 1],
    [1, 1, 0, 0],
    [0, 0, 1, 0],
    [1, 1, 1, 1],
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 1, 0],
]


@pytest.fixture
def line41():
    return line_network(4, 1)


@pytest.fixture
def line51():
    return line_network(5, 1)


def hyper_chain(L: int):
    """L links where each inner l_i collides with {l_(i-1), l_(i+1)} at -1/+1."""
    links = [f"l{i}" for i in range(1, L + 1)]
    collisions = {link: [] for link in links}
    delays = {}
    for i in range(2, L):
        collisions[f"l{i}"] = [[f"l{i - 1}", f"l{i + 1}"]]
        delays[(f"l{i}", f"l{i - 1}")] = -1
        delays[(f"l{i}", f"l{i + 1}")] = 1
    net = make_network(links, collisions, delays)
    validate(net)
    return net


@pytest.fixture
def hyper_n4():
    """Four links where the middle two collide with pairs at offsets -1/+1."""
    return hyper_chain(4)


@pytest.fixture
def shifted_example():
    """Character-4 network whose shift by (4,3,2,1) has character 1."""
    net = make_network(
        ["l1", "l2", "l3", "l4"],
        {"l1": [["l2"], ["l3"], ["l4"]], "l2": [["l1"], ["l3"], ["l4"]],
         "l3": [["l2"], ["l4"]], "l4": [["l3"]]},
        {("l1", "l2"): 0, ("l1", "l3"): -2, ("l1", "l4"): -4,
         ("l2", "l1"): 0, ("l2", "l3"): 0, ("l2", "l4"): -2,
         ("l3", "l2"): 0, ("l3", "l4"): 0, ("l4", "l3"): 0},
    )
    validate(net)
    return net


@pytest.fixture
def gcd_example():
    """Character-5 network reducible to character 1 via shift plus GCD 3."""
    net = make_network(
        ["l1", "l2", "l3", "l4"],
        {"l1": [["l2"], ["l3"]], "l2": [["l3"], ["l4"]], "l3": [["l4"]], "l4": []},
        {("l1", "l2"): 1, ("l1", "l3"): 2, ("l2", "l3"): 1,
         ("l2", "l4"): 5, ("l3", "l4"): 1},
    )
    validate(net)
    return net


def random_network(rng: random.Random, regime_T: int | None = None):
    """Random validated network, small enough for brute-force oracles.

    With ``regime_T`` given, delays are chosen so cycle rates at that
    window length are guaranteed achievable (binary: |d| <= T, general:
    |d| <= T // 2).
    """
    hyper = rng.random() < 0.3
    if hyper:
        L = rng.choice([3, 4])
    else:
        L = rng.choice([2, 3, 4])
    links = [f"l{i}" for i in range(1, L + 1)]
    if regime_T is None:
        dmax = 2
    elif hyper:
        dmax = max(regime_T // 2, 0)
    else:
        dmax = regime_T
    collisions: dict[str, list[list[str]]] = {l: [] for l in links}
    delays: dict[tuple[str, str], int] = {}
    n_constraints = rng.randint(L, 2 * L)
    for _ in range(n_constraints):
        l = rng.choice(links)
        others = [x for x in links if x != l]
        if hyper and len(others) >= 2 and rng.random() < 0.6:
            phi = rng.sample(others, 2)
        else:
            phi = [rng.choice(others)]
        collisions[l].append(phi)
        for lp in phi:
            delays.setdefault((l, lp), rng.randint(-dmax, dmax))
    net = make_network(links, collisions, delays)
    validate(net)
    return net


def schedule_region(network, P: int) -> RegionDescription:
    """Reference region with no window, bitset or scheduling graph.

    Enumerates every 0/1 schedule of each period p <= P (2^(|L|·p) of
    them), keeps the ones ``verify`` finds collision-free and takes the
    Pareto front of their rate vectors as generators.
    """
    num_links = len(network.links)
    rates = set()
    for p in range(1, P + 1):
        for bits in itertools.product((0, 1), repeat=num_links * p):
            s = PeriodicSchedule(p, [{t for t in range(p) if bits[i * p + t]}
                                     for i in range(num_links)])
            if verify(network, s):
                rates.add(rate_vector(network, s))
    front = sorted(r for r in rates
                   if not any(o != r and all(a >= b for a, b in zip(o, r)) for o in rates))
    return RegionDescription(network.links, 1, tuple(front), (None,) * len(front), {})
