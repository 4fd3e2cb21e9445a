import math
import random

import pytest

from delaysched import (
    PeriodicSchedule,
    build,
    build_maximal,
    build_window,
    has_edge,
    is_vertex,
    line_network,
    make_network,
    schedule_from_closed_path,
    schedule_is_path,
    validate,
    verify,
)
from delaysched.window import bit_position, block_from_rows, join_pair, split_pair

from conftest import (
    EDGE_MATRIX_41,
    MAXIMAL_EDGE_MATRIX_41,
    hyper_chain,
    random_network,
    v,
)


def test_is_vertex_reference(line41):
    assert is_vertex(line41, 0, 1)
    assert is_vertex(line41, v(6), 1)
    assert not is_vertex(line41, block_from_rows(list("1010"), 1), 1)


def test_has_edge_reference(line41):
    assert has_edge(line41, v(6), v(1), 1)
    assert not has_edge(line41, v(6), v(2), 1)
    for i in range(9):
        assert has_edge(line41, v(i), 0, 1)
        assert has_edge(line41, 0, v(i), 1)


@pytest.mark.parametrize(
    "L,vertices,edges", [(4, 9, 56), (5, 15, 144), (6, 25, 357)]
)
def test_reference_graph_sizes(L, vertices, edges):
    g = build(line_network(L, 1), 1)
    assert len(g.vertices) == vertices
    assert g.edge_count == edges


# The graph-build rungs of the benchmark (perfbench/golden.json holds the
# same counts).
@pytest.mark.parametrize(
    "net,T,vertices,edges",
    [
        (line_network(5, 1), 3, 1421, 1340964),
        (hyper_chain(5), 2, 1024, 529984),
    ],
    ids=["line51-T3", "chain5-T2"],
)
def test_graph_build_sizes(net, T, vertices, edges):
    g = build(net, T)
    assert len(g.vertices) == vertices
    assert g.edge_count == edges


def _ref_build_adjacency(network, T):
    """The all-pairs definition: (a, b) is an edge iff the juxtaposed 2T
    window a|b is independent under every mask of the doubled window."""
    single = build_window(network, T)
    double = build_window(network, 2 * T)
    nbits = single.nbits
    vertices = tuple(single.independent_sets())
    adjacency = {}
    for a in vertices:
        shifted = a << nbits
        adjacency[a] = tuple(
            b for b in vertices if double.is_independent(shifted | b)
        )
    return vertices, adjacency


# Seeds 7000-7011 draw both binary and hypergraph profiles.
DEFINITION_CASES = (
    [(f"line{L}1", line_network(L, 1), T) for L in (4, 5) for T in (1, 2, 3)]
    + [("hyper_n4", hyper_chain(4), T) for T in (1, 2)]
    # Hyperedge constraints spanning three columns; 448 vertices.
    + [("chain3", hyper_chain(3), 3)]
    + [("chain5", hyper_chain(5), T) for T in (1, 2)]
    + [
        (f"random{seed}", random_network(random.Random(seed)), T)
        for seed in range(7000, 7012)
        for T in (1, 2)
    ]
)


@pytest.mark.parametrize(
    "net,T",
    [case[1:] for case in DEFINITION_CASES],
    ids=[f"{name}-T{T}" for name, _, T in DEFINITION_CASES],
)
def test_build_matches_double_window_definition(net, T):
    g = build(net, T)
    vertices, adjacency = _ref_build_adjacency(net, T)
    assert g.vertices == vertices
    assert g.adjacency == adjacency
    assert list(g.adjacency) == list(adjacency)


# Blocks with equal forbidden sets share one successor tuple, and the
# cycle searches cache per row object, so the count of row objects is
# part of the build's contract.
@pytest.mark.parametrize(
    "net,T,rows",
    [
        (hyper_chain(3), 3, 4),
        (hyper_chain(4), 3, 12),
        (line_network(5, 1), 3, 9),
        (hyper_chain(5), 2, 36),
        (hyper_chain(6), 2, 108),
    ],
    ids=["chain3-T3", "chain4-T3", "line51-T3", "chain5-T2", "chain6-T2"],
)
def test_build_shares_one_row_per_forbidden_set(net, T, rows):
    g = build(net, T)
    assert len({id(r) for r in g.adjacency.values()}) == rows
    for row in g.adjacency.values():
        assert list(row) == sorted(row)


@pytest.mark.parametrize(
    "collisions,delays",
    [({}, {}), ({"a": [["b"]]}, {("a", "b"): 0})],
    ids=["no-collisions", "same-slot-collision"],
)
def test_build_without_crossing_masks_has_one_full_row(collisions, delays):
    net = make_network(["a", "b", "c"], collisions, delays)
    g = build(net, 2)
    # No mask crosses the boundary: both projections are empty.
    halves = [split_pair(m, 6) for m in build_window(net, 4).masks]
    assert [left for left, right in halves if left and right] == []
    assert len({id(r) for r in g.adjacency.values()}) == 1
    assert g.adjacency[0] == g.vertices
    assert len(g.vertices) == (64 if not collisions else 36)


def test_line41_adjacency_matches_reference_matrix(line41):
    g = build(line41, 1)
    assert list(g.vertices) == sorted(v(i) for i in range(9))
    for i in range(9):
        for j in range(9):
            expected = bool(EDGE_MATRIX_41[i][j])
            assert (v(j) in g.adjacency[v(i)]) == expected, (i, j)


def test_maximal_edges_match_reference(line41):
    mx = build_maximal(line41, 1)
    assert set(mx.left) == {v(i) for i in (5, 6, 7, 8)}
    assert set(mx.right) == {v(i) for i in (5, 6, 7, 8)}
    order = [5, 6, 7, 8]
    expected = {
        (v(order[i]), v(order[j]))
        for i in range(4) for j in range(4) if MAXIMAL_EDGE_MATRIX_41[i][j]
    }
    assert set(mx.edges) == expected
    assert list(mx.edges) == sorted(mx.edges)


def test_maximal_edges_free_network():
    net = make_network(["a", "b"], {}, {})
    mx = build_maximal(net, 1)
    assert mx.edges == ((0b11, 0b11),)


def test_maximal_edges_are_maximal_edges_of_full_graph(line51):
    g = build(line51, 1)
    all_edges = {(a, b) for a in g.vertices for b in g.adjacency[a]}
    brute = {
        (a, b)
        for (a, b) in all_edges
        if not any(
            (c, d) != (a, b) and c & a == a and d & b == b
            for (c, d) in all_edges
        )
    }
    edges = build_maximal(line51, 1).edges
    assert set(edges) == brute
    assert list(edges) == sorted(edges)


def test_maximal_edges_closure(line41):
    # Every full-graph edge is dominated by a maximal edge, and every
    # pair dominated by a maximal edge is an edge.
    g = build(line41, 1)
    mx = build_maximal(line41, 1)
    edges = {(a, b) for a in g.vertices for b in g.adjacency[a]}
    assert set(mx.edges) <= edges
    for a, b in edges:
        assert any(ma & a == a and mb & b == b for ma, mb in mx.edges)
    for ma, mb in mx.edges:
        for a, b in edges:
            if ma & a == a and mb & b == b:
                assert (a, b) in edges


def test_hypergraph_single_window_graph_is_complete(hyper_n4):
    g = build(hyper_n4, 1)
    assert len(g.vertices) == 16
    assert g.edge_count == 256


def test_strong_connectivity_through_zero(line41, hyper_n4):
    for net in (line41, hyper_n4):
        g = build(net, 1)
        for a in g.vertices:
            assert 0 in g.adjacency[a]
            assert a in g.adjacency[0]


def test_schedule_is_path_for_collision_free_schedules(line41):
    s = schedule_from_closed_path((v(5), v(8), v(7), v(6), v(5)), 1, 4)
    assert verify(line41, s)
    for T in (1, 2, 3):
        assert schedule_is_path(line41, s, T)


def test_path_without_collision_freedom_below_regime(hyper_n4):
    s = PeriodicSchedule(3, ({0}, {0, 1}, {1, 2}, {2}))
    assert schedule_is_path(hyper_n4, s, 1)
    assert not verify(hyper_n4, s)
    assert not schedule_is_path(hyper_n4, s, 2)


def _dense_is_path(network, s, T):
    """Every slab pair of one lcm(P, T)/T period, each slab read cell by cell."""
    L = len(network.links)
    double = build_window(network, 2 * T)

    def slab(k):
        return sum(s.active(l, k * T + j) << bit_position(l, j, L, T)
                   for l in range(L) for j in range(T))

    return all(double.is_independent(join_pair(slab(k), slab(k + 1), L * T))
               for k in range(math.lcm(s.period, T) // T))


def _wide_pair(d):
    """Two links: ``a`` collides with ``b`` at delay ``d``."""
    net = make_network(["a", "b"], {"a": [["b"]], "b": []}, {("a", "b"): d})
    validate(net)
    return net


@pytest.mark.parametrize("seed", range(4))
def test_schedule_is_path_matches_a_dense_slab_walk(seed):
    # Periods are multiples of T, coprime with T or shorter than T; rows are sparse.
    # A wide pair's collision may fit a slab pair at one lift of its slots only.
    rng = random.Random(9100 + seed)
    outcomes = []
    for _ in range(60):
        T = rng.randint(1, 3)
        L = rng.randint(3, 5)
        net = rng.choice([line_network(L, rng.randint(1, L - 1)), hyper_chain(L),
                          _wide_pair(rng.choice([-1, 1]) * rng.randint(T, 2 * T - 1))])
        kind = rng.choice(["multiple", "coprime", "shorter"] if T > 1 else ["multiple"])
        if kind == "multiple":
            period = T * rng.randint(1, 8)
        elif kind == "coprime":
            period = rng.choice([p for p in range(1, 25) if math.gcd(p, T) == 1])
        else:
            period = rng.randint(1, T - 1)
        density = rng.choice([0.05, 0.15, 0.3])
        s = PeriodicSchedule(period, [{t for t in range(period) if rng.random() < density}
                                      for _ in net.links])
        outcomes.append(schedule_is_path(net, s, T))
        assert outcomes[-1] == _dense_is_path(net, s, T), (net.links, period, s.rows, T)
    assert True in outcomes and False in outcomes


def test_schedule_is_path_checks_every_lift_of_a_slot():
    # a at 1 and b at 1 + 3 collide; the pair holding slots 4 to 7 sees it, 0 to 3 does not.
    s = PeriodicSchedule(3, ({1}, {1}))
    assert not schedule_is_path(_wide_pair(3), s, 2)
    assert not _dense_is_path(_wide_pair(3), s, 2)


@pytest.mark.parametrize("T", [1, 2, 3])
def test_a_schedule_with_no_active_slot_is_a_path(T):
    # schedule_is_path checks no pair for an idle schedule: the all-zero
    # pair must be an edge of every doubled window.
    rng = random.Random(9300 + T)
    for _ in range(200):
        net = random_network(rng)
        L = len(net.links)
        assert build_window(net, 2 * T).is_independent(join_pair(0, 0, L * T)), net.links
        s = PeriodicSchedule(rng.randint(1, 6), (set(),) * L)
        assert schedule_is_path(net, s, T) and _dense_is_path(net, s, T), (net.links, T)


@pytest.mark.parametrize("seed", range(10))
def test_random_paths_induce_collision_free_schedules_in_regime(seed):
    # Binary profile with window length >= character: every closed path's
    # periodic schedule verifies.
    rng = random.Random(5000 + seed)
    net = line_network(4, 1)
    g = build(net, 1)
    path = [rng.choice(g.vertices)]
    for _ in range(rng.randint(1, 5)):
        path.append(rng.choice(g.adjacency[path[-1]]))
    if path[0] not in g.adjacency[path[-1]]:
        path.append(0)
    path.append(path[0])
    s = schedule_from_closed_path(tuple(path), 1, 4)
    assert verify(net, s)


@pytest.mark.parametrize("seed", range(10))
def test_theorem_regime_for_hypergraph_double_window(hyper_n4, seed):
    rng = random.Random(6000 + seed)
    g = build(hyper_n4, 2)
    path = [rng.choice(g.vertices)]
    for _ in range(rng.randint(1, 4)):
        path.append(rng.choice(g.adjacency[path[-1]]))
    if path[0] not in g.adjacency[path[-1]]:
        path.append(0)
    path.append(path[0])
    s = schedule_from_closed_path(tuple(path), 2, 4)
    assert verify(hyper_n4, s)


@pytest.mark.parametrize("seed", range(8))
def test_edge_downward_closure_random(seed):
    rng = random.Random(7000 + seed)
    net = random_network(rng)
    T = rng.choice([1, 2])
    if len(net.links) * T > 10:
        pytest.skip("window too large")
    g = build(net, T)
    w2 = build_window(net, 2 * T)
    nbits = len(net.links) * T
    edges = [(a, b) for a in g.vertices for b in g.adjacency[a]]
    for a, b in rng.sample(edges, min(30, len(edges))):
        sub_a = rng.randint(0, a) & a
        sub_b = rng.randint(0, b) & b
        assert w2.is_independent((sub_a << nbits) | sub_b)
