import hashlib
import inspect
import random
import sys
import tracemalloc
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, count, product
from math import lcm
from types import SimpleNamespace

import pytest

from delaysched import (
    SchedulingGraph,
    algorithm_a,
    algorithm_b,
    build,
    build_layered,
    build_maximal,
    build_window,
    canonical_cycle,
    count_layered_paths,
    cycle_dominates,
    dominates,
    is_binary,
    iter_layered_paths,
    johnson_cycles,
    line_network,
    make_network,
    pareto_filter,
    path_to_cycles,
    region_from_cycles,
    validate,
)
from delaysched import cycles as cycles_mod
from delaysched.cycles import (
    CycleSearchResult,
    _distinct,
    _layer_chain,
    _maximal,
    _next_layer,
    _packed_rates,
    _pareto_front,
    _retain_maximal,
    _rotations,
    _rows,
    closed_path_rate,
    rate_numerators,
)
from delaysched.window import link_row_masks

from conftest import (
    MAXIMAL_EDGE_MATRIX_41,
    U0_MATRIX_41,
    U1P_MATRIX_41,
    U2P_MATRIX_41,
    hyper_chain,
    random_network,
    v,
)

F = Fraction


# ---------------------------------------------------------------- dominance

def test_dominates_reference_cases():
    assert dominates((v(5), v(8)), (v(5), v(8)))
    assert dominates((v(5), v(8)), (v(1), v(4)))
    assert not dominates((v(1), v(4)), (v(4), v(1)))
    assert not dominates((v(4), v(1)), (v(1), v(4)))
    with pytest.raises(ValueError, match="length mismatch"):
        dominates((v(1),), (v(1), v(2)))


def test_canonical_cycle_rotation():
    cyc = (v(8), v(7), v(6), v(5), v(8))
    canon = canonical_cycle(cyc)
    assert canon[0] == min(cyc[:-1])
    assert canon[0] == canon[-1]
    assert sorted(canon[:-1]) == sorted(cyc[:-1])
    for r in range(1, 4):
        interior = cyc[:-1]
        rotated = interior[r:] + interior[:r]
        assert canonical_cycle(rotated + (rotated[0],)) == canon


@pytest.mark.parametrize("cycle", [(), [], (5,), (1, 2), [1, 2, 3]])
def test_canonical_cycle_rejects_open_sequences(cycle):
    with pytest.raises(ValueError, match="cycle is not a closed block path"):
        canonical_cycle(cycle)


def _ref_canonical_cycle(cycle):
    """The rotation without the shortcut for already canonical tuples."""
    interior = tuple(cycle[:-1])
    shift = interior.index(min(interior))
    rotated = interior[shift:] + interior[:shift]
    return rotated + (rotated[0],)


def test_canonical_cycle_returns_canonical_tuples_as_is():
    cyc = (1, 4, 2, 1)
    from_list = canonical_cycle(list(cyc))
    assert type(from_list) is tuple and from_list == canonical_cycle(cyc) == cyc
    rng = random.Random(8200)
    for _ in range(500):
        interior = [rng.randint(0, 7) for _ in range(rng.randint(1, 5))]
        cyc = (*interior, interior[0])
        assert canonical_cycle(cyc) == canonical_cycle(list(cyc)) == _ref_canonical_cycle(cyc), cyc


def test_cycle_dominates_alignment():
    big = canonical_cycle((v(5), v(8), v(5)))
    small = canonical_cycle((v(4), v(1), v(4)))  # 0001, 1000 columns
    assert cycle_dominates(big, small)
    assert not cycle_dominates(small, big)


# ------------------------------------------------------------------ johnson

def brute_cycles(graph, max_len=None):
    """Elementary cycles by rooted DFS (cross-check oracle)."""
    verts = list(graph.vertices)
    order = {b: i for i, b in enumerate(verts)}
    out = set()

    def extend(root, path, on_path):
        if max_len is not None and len(path) > max_len:
            return
        for nxt in graph.adjacency[path[-1]]:
            if order[nxt] < order[root]:
                continue
            if nxt == root:
                out.add(canonical_cycle(tuple(path) + (root,)))
            elif nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                extend(root, path, on_path)
                path.pop()
                on_path.remove(nxt)

    for root in verts:
        extend(root, [root], {root})
    return out


# Graphs for the cross-checks: name -> (random_network seed, T), or line41.
ORACLE_CASES = {
    "line41": None,
    "binary7000": (7000, 2),
    "hyper7001": (7001, 1),
    "hyper7004": (7004, 2),
    "binary7008": (7008, 1),
}


def oracle_graph(case):
    if ORACLE_CASES[case] is None:
        return build(line_network(4, 1), 1)
    seed, T = ORACLE_CASES[case]
    return build(random_network(random.Random(seed)), T)


@pytest.mark.parametrize("max_len", [0, 1, 2, 3])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_johnson_matches_dfs_oracle_small(case, max_len):
    g = oracle_graph(case)
    res = johnson_cycles(g, max_len=max_len)
    assert res.complete
    assert res.cycles == tuple(sorted(brute_cycles(g, max_len)))


def test_johnson_matches_dfs_oracle_uncapped():
    g = oracle_graph("line41")
    assert johnson_cycles(g).cycles == tuple(sorted(brute_cycles(g)))


def test_johnson_negative_length_rejected(line41):
    with pytest.raises(ValueError):
        johnson_cycles(build(line41, 1), max_len=-1)


@pytest.mark.parametrize("max_len", [2.5, 3.5, True], ids=["2.5", "3.5", "bool"])
def test_johnson_rejects_a_length_that_is_not_an_int(line41, max_len):
    # A float was taken as its floor and True as 1.
    with pytest.raises(ValueError, match=f"bad max_len {max_len!r}"):
        johnson_cycles(build(line41, 1), max_len=max_len)


def test_johnson_full_enumeration_count(line41):
    g = build(line41, 1)
    res = johnson_cycles(g)
    assert res.complete
    assert set(res.cycles) == brute_cycles(g)
    assert len(res.cycles) == 7653  # regression value for this 9-vertex graph


def test_johnson_single_self_loop():
    net = make_network(["a"], {"a": [["a"]]}, {("a", "a"): 0})
    validate(net)
    g = build(net, 1)
    assert g.vertices == (0,)
    res = johnson_cycles(g)
    assert res.cycles == ((0, 0),)


def test_johnson_one_cycles_only(line41):
    g = build(line41, 1)
    res = johnson_cycles(g, max_len=1)
    assert set(res.cycles) == {(v(i), v(i)) for i in range(6)}
    rates = [closed_path_rate(c, 1, 4) for c in res.cycles]
    maximal = [
        r for r in rates
        if not any(r2 != r and all(a >= b for a, b in zip(r2, r)) for r2 in rates)
    ]
    assert sorted(maximal) == sorted([
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(1), F(0), F(0), F(1)),
    ])


def test_johnson_budget_truncation(line41):
    g = build(line41, 1)
    res = johnson_cycles(g, budget=0.0)
    assert not res.complete


def assert_elementary_canonical(graph, cycles):
    for c in cycles:
        interior = c[:-1]
        assert c[-1] == c[0] == min(interior)
        assert len(set(interior)) == len(interior)
        assert all(b in graph.adjacency[a] for a, b in zip(c, c[1:]))


def step_clock():
    """A module clock that advances by 1 per read: a budget of ``n`` then
    cuts after exactly ``n`` checks, so a cut is reproducible."""
    reads = count()
    return SimpleNamespace(monotonic=lambda: next(reads))


def test_johnson_budget_cut_is_sorted_subset(monkeypatch, line51):
    # Unbounded cycles of line51 T2 are far too many to enumerate.  A cut
    # search returns a sorted set of its elementary canonical cycles, and
    # those short enough for a complete bounded search are in its result.
    g = build(line51, 2)
    res = johnson_cycles(g, budget=0)
    assert not res.complete
    assert list(res.cycles) == sorted(res.cycles)
    assert_elementary_canonical(g, res.cycles)

    monkeypatch.setattr(cycles_mod, "time", step_clock())
    res = johnson_cycles(g, budget=3000)
    assert not res.complete
    assert list(res.cycles) == sorted(res.cycles)
    assert_elementary_canonical(g, res.cycles)
    assert len(res.cycles) > 1000
    short = {c for c in res.cycles if len(c) <= 4}
    assert short and short <= set(johnson_cycles(g, max_len=3).cycles)


def test_johnson_without_budget_builds_no_deadline(monkeypatch, line41):
    # No search without a budget reads the clock, the layered ones included.
    g = build(line41, 1)
    want = [johnson_cycles(g), algorithm_a(line41, 1, 3), algorithm_b(line41, 1, 3)]

    def no_clock():
        raise AssertionError("a search without a budget read the clock")

    monkeypatch.setattr(cycles_mod, "time", SimpleNamespace(monotonic=no_clock))
    assert [johnson_cycles(g), algorithm_a(line41, 1, 3), algorithm_b(line41, 1, 3)] == want
    assert all(res.complete for res in want)


def _ref_johnson(graph, max_len=None):
    """The search that scans a row for the root on every visit and walks
    every row to the last step, without a budget."""
    if max_len is None:
        max_len = len(graph.vertices)
    adj = graph.adjacency
    found = []
    for root in graph.vertices if max_len else ():
        if root in adj[root]:
            found.append((root, root))
        if max_len < 2:
            continue
        row = adj[root]
        above = {id(row): tuple(b for b in row if b > root)}
        path = [root]
        on_path = {root}
        stack = [iter(above[id(row)])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    continue
                row = adj[nxt]
                if root in row:
                    found.append((*path, nxt, root))
                if len(path) + 1 < max_len:
                    succ = above.get(id(row))
                    if succ is None:
                        succ = above[id(row)] = tuple(b for b in row if b > root)
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return CycleSearchResult(tuple(sorted(found)), True)


def test_johnson_matches_the_full_scan_on_random_networks():
    # Lengths up to 5 on graphs of at most 16 vertices, up to 3 on the
    # rest, and every length on graphs of at most 10 vertices.
    checked = hyper = 0
    for seed in range(7100, 7140):
        net = random_network(random.Random(seed))
        for T in (1, 2):
            g = build(net, T)
            n = len(g.vertices)
            if n > 48:
                continue
            checked += 1
            hyper += not is_binary(net)
            lengths = [0, 1, 2, 3] + [4, 5] * (n <= 16) + [None] * (n <= 10)
            for max_len in lengths:
                assert johnson_cycles(g, max_len=max_len) == _ref_johnson(g, max_len), (
                    seed, T, max_len)
    assert checked >= 50 and hyper >= 10


def _hand_built_graph(rng, n):
    """Vertices and rows in random order, each row shared by several blocks."""
    vertices = rng.sample(range(1, 3 * n), n)
    pool = [tuple(rng.sample(vertices, rng.randint(0, n))) for _ in range(max(1, n // 2))]
    return SchedulingGraph(tuple(vertices), {b: rng.choice(pool) for b in vertices})


def test_johnson_on_hand_built_graphs_with_shared_rows_and_self_loops():
    # A closer can be the block whose row it comes from (a self-loop) or
    # lie on the path; neither closes a cycle.  Vertices and rows need not
    # ascend, and the output is still sorted.
    row = (4, 2, 1, 3)
    g = SchedulingGraph((3, 1, 4, 2), {1: row, 2: row, 3: (3, 1), 4: row})
    assert johnson_cycles(g, max_len=2).cycles == (
        (1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 2), (2, 4, 2), (3, 3), (4, 4))
    for max_len in (0, 1, 2, 3, 4, None):
        res = johnson_cycles(g, max_len=max_len)
        assert res == _ref_johnson(g, max_len)
        assert set(res.cycles) == brute_cycles(g, max_len)
    rng = random.Random(7200)
    for _ in range(300):
        g = _hand_built_graph(rng, rng.randint(1, 7))
        for max_len in (0, 1, 2, 3, 4, None):
            res = johnson_cycles(g, max_len=max_len)
            assert res == _ref_johnson(g, max_len)
            assert list(res.cycles) == sorted(res.cycles)


def test_johnson_on_hand_built_graphs_with_equal_rows_that_are_not_shared():
    # Vertices out of order, and about half the rows swapped for equal
    # copies.  The search keeps what it reads of a row under the row's id,
    # so equal rows that are distinct objects are read apart and must agree.
    rng = random.Random(7300)
    copies = 0
    for _ in range(200):
        g = _hand_built_graph(rng, rng.randint(1, 7))
        adjacency = {b: tuple(list(row)) if rng.random() < 0.5 else row
                     for b, row in g.adjacency.items()}
        copies += any(row and row is not g.adjacency[b] for b, row in adjacency.items())
        g = SchedulingGraph(g.vertices, adjacency)
        for max_len in (0, 1, 2, 3, 4, 5, None):
            res = johnson_cycles(g, max_len=max_len)
            assert res == _ref_johnson(g, max_len)
            assert set(res.cycles) == brute_cycles(g, max_len)
    assert copies > 100


@pytest.mark.parametrize("max_len", [2, 3])
def test_johnson_budget_cut_at_a_short_length(monkeypatch, line41, max_len):
    # The walk checks the budget once per step, the root's own step
    # included.  A cut returns sorted, elementary, canonically rotated
    # cycles: every cycle of each root it finished, and some of the root
    # it was cut in.
    g = build(line41, 2)
    full = set(johnson_cycles(g, max_len=max_len).cycles)
    monkeypatch.setattr(cycles_mod, "time", step_clock())
    res = johnson_cycles(g, max_len=max_len, budget=40)
    assert not res.complete
    assert list(res.cycles) == sorted(res.cycles)
    assert_elementary_canonical(g, res.cycles)
    assert len(set(res.cycles)) == len(res.cycles)
    cut_in = g.vertices.index(max(c[0] for c in res.cycles))
    finished = {c for c in full if c[0] in g.vertices[:cut_in]}
    assert finished and finished <= set(res.cycles) < full


# Johnson on three large line graphs (up to 1.34 M edges, each row shared
# by many blocks): the cycle count and the SHA-256 of the sorted cycles'
# blocks as 64-bit ints.
LARGE_JOHNSON = {
    "L5 T3 max_len 2": (5, 3, 2, 446985,
                        "9473724fb450748f565e761e72f7cd7cdedc42fafc7dfee93761fd117cbcc217"),
    "L4 T2 max_len 4": (4, 2, 4, 704242,
                        "cb883d87c3f6a7aa23d997286f2d680434d9123115efa6d3a95294ee45b6617c"),
    "L5 T2 max_len 3": (5, 2, 3, 296233,
                        "b19bc52b74404185b558279766b571eef06301ba93b9bc432a39881a13d2b89c"),
}


@pytest.mark.parametrize("case", list(LARGE_JOHNSON))
def test_johnson_on_large_line_graphs_keeps_its_recorded_cycles(case):
    L, T, max_len, n, sha = LARGE_JOHNSON[case]
    res = johnson_cycles(build(line_network(L, 1), T), max_len=max_len)
    assert res.complete and len(res.cycles) == n
    blocks = array("q", chain.from_iterable(res.cycles)).tobytes()
    assert hashlib.sha256(blocks).hexdigest() == sha


def _johnson_memory(g, max_len):
    """The result of ``johnson_cycles`` and the bytes it holds and peaked
    at during the call, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = johnson_cycles(g, max_len=max_len)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, held - before, peak - before


def test_johnson_holds_its_cycles_packed():
    # One tuple per cycle held about 80 bytes per cycle here, and one
    # index per block with one end per cycle about 14.  Groups that share
    # a head and a closer list hold under 6.
    res, held, _ = _johnson_memory(build(line_network(4, 1), 2), 3)
    assert len(res.cycles) == 23932
    assert held <= 8 * len(res.cycles)


def test_johnson_peak_memory_stays_near_what_it_holds():
    # The walk keeps one head per group until the end, not one tuple per
    # cycle: about 11 bytes per cycle at the peak here, where building
    # every cycle's tuple peaked at about 79.
    res, _, peak = _johnson_memory(build(line_network(4, 1), 2), 3)
    assert len(res.cycles) == 23932
    assert peak <= 16 * len(res.cycles)


def _complete_digraph(n):
    """Every block in every row, its own included: every closer of a
    head's last block lies on the head or extends it."""
    vertices = tuple(range(1, n + 1))
    return SchedulingGraph(vertices, dict.fromkeys(vertices, vertices))


def test_johnson_group_sizes_match_the_cycles_they_hold():
    # A group's size is its closers less the head blocks among them; a
    # size off by one shows as a length that iteration does not reach, or
    # as an index that reads another cycle.
    # Lengths up to 5 on graphs of at most 16 vertices, up to 3 on the
    # rest, and every length on graphs of at most 10 vertices.
    graphs = [_complete_digraph(n) for n in range(1, 8)]
    for seed in range(7500, 7520):
        net = random_network(random.Random(seed))
        g = build(net, 1 + seed % 2)
        if len(g.vertices) <= 48:
            graphs.append(g)
    assert len(graphs) >= 20
    for g in graphs:
        n = len(g.vertices)
        for max_len in [0, 1, 2, 3] + [4, 5] * (n <= 16) + [None] * (n <= 10):
            cycles = johnson_cycles(g, max_len=max_len).cycles
            want = _ref_johnson(g, max_len).cycles
            assert len(cycles) == sum(1 for _ in cycles) == len(want), (g.vertices, max_len)
            assert [cycles[i] for i in range(len(want))] == list(want)
            assert [cycles[i] for i in range(-len(want), 0)] == list(want)
    # The complete digraph on 7 blocks: C(7, k) * (k - 1)! cycles of k blocks.
    assert len(johnson_cycles(graphs[6]).cycles) == 2372


def assert_reads_as(packed, want):
    """A packed cycle sequence reads as the tuple ``want``, as a tuple would."""
    assert type(want) is tuple
    assert len(packed) == len(want)
    assert tuple(packed) == want and list(reversed(packed)) == list(reversed(want))
    assert packed == want and want == packed and not packed != want
    assert hash(packed) == hash(want)
    assert packed != list(want)
    for i in range(-len(want), len(want)):
        assert packed[i] == want[i]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            packed[i]
    for s in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(5, 2)):
        assert type(packed[s]) is tuple and packed[s] == want[s]
    assert all(c in packed for c in want[:3] + want[-3:])
    assert (-1, -1) not in packed


def test_johnson_cycles_read_as_the_tuple_they_pack(monkeypatch):
    # The full scan's sorted tuple is the form the packed cycles replace.
    # The walk finds cycles in sorted order, so a cut run holds a prefix.
    cut = 0
    for seed in range(7400, 7420):
        net = random_network(random.Random(seed))
        g = build(net, 1 + seed % 2)
        if len(g.vertices) > 48:
            continue
        want = _ref_johnson(g, 3).cycles
        res = johnson_cycles(g, max_len=3)
        assert_reads_as(res.cycles, want)
        again = johnson_cycles(g, max_len=3)
        assert again == res and again.cycles == res.cycles
        assert hash(again) == hash(res)
        with monkeypatch.context() as m:
            m.setattr(cycles_mod, "time", step_clock())
            part = johnson_cycles(g, max_len=3, budget=len(g.vertices))
        cut += not part.complete
        assert_reads_as(part.cycles, want[:len(part.cycles)])
        assert not part.complete or part.cycles == res.cycles
        if len(part.cycles) < len(want):
            assert part.cycles != res.cycles and res.cycles != part.cycles
    assert cut >= 5
    # Vertices and rows out of order still give sorted cycles.
    g = SchedulingGraph((9, 1, 5, 3), {9: (1, 9, 3), 1: (5, 9, 3), 5: (3, 1), 3: (9, 5, 1)})
    assert_reads_as(johnson_cycles(g).cycles, (
        (1, 3, 1), (1, 3, 5, 1), (1, 3, 9, 1), (1, 5, 1), (1, 5, 3, 1), (1, 5, 3, 9, 1),
        (1, 9, 1), (1, 9, 3, 1), (1, 9, 3, 5, 1), (3, 5, 3), (3, 9, 3), (9, 9)))
    assert repr(johnson_cycles(g, max_len=1).cycles) == "<1 cycles: (9, 9)>"


# ------------------------------------------------------------- path2cycles

def test_path_to_cycles_trivial_paths():
    assert path_to_cycles((v(5), 0)) == {(0, 0)}
    assert path_to_cycles((v(5), v(5))) == {(v(5), v(5))}
    # Open walk: the wrap block is the AND of the endpoints.
    out = path_to_cycles((v(6), v(5), v(8)))
    assert (v(6) & v(8), v(5), v(6) & v(8)) in out


@pytest.mark.parametrize("path", [(), (v(5),)], ids=["empty", "one-block"])
def test_path_to_cycles_rejects_a_path_with_no_edge(path):
    with pytest.raises(ValueError, match="path must have length >= 1"):
        path_to_cycles(path)


def test_path_to_cycles_resolves_duplicates():
    out = path_to_cycles((v(5), v(8), v(5), v(8), v(5)))
    for cyc in out:
        assert cyc[0] == cyc[-1]
        interior = cyc[:-1]
        assert len(set(interior)) == len(interior)
        assert all(b & p == b for b, p in zip(interior, (v(5), v(8), v(5), v(8))))


def dominated_maximal_cycles(path):
    """Brute-force oracle: maximal distinct-block cycles under a path."""
    k = len(path) - 1
    bounds = [path[0] & path[-1]] + [path[i] for i in range(1, k)]

    def submasks(m):
        s = m
        while True:
            yield s
            if s == 0:
                return
            s = (s - 1) & m

    cycles = set()
    for combo in product(*[list(submasks(b)) for b in bounds]):
        if len(set(combo)) == len(combo):
            cycles.add(tuple(combo) + (combo[0],))
    return {
        c for c in cycles
        if not any(
            c2 != c and all(x & y == y for x, y in zip(c2, c)) for c2 in cycles
        )
    }


@pytest.mark.parametrize("seed", range(15))
def test_path_to_cycles_finds_all_maximal_dominated(seed):
    rng = random.Random(8000 + seed)
    k = rng.randint(1, 4)
    path = tuple(rng.randint(0, 63) for _ in range(k + 1))
    out = path_to_cycles(path)
    expected = dominated_maximal_cycles(path)
    for cyc in expected:
        assert cyc in out, (path, cyc)
    for cyc in out:
        interior = cyc[:-1]
        assert len(set(interior)) == len(interior)
        # domination of the defining bounds, position-wise
        bounds = (path[0] & path[-1],) + tuple(path[1:-1])
        assert all(b & c == c for b, c in zip(bounds, interior))


def _ref_path_to_cycles(path):
    """The extraction without its distinct-block shortcut."""
    blocks = [path[0] & path[-1], *path[1:-1]]
    return _distinct(blocks)


def _ref_distinct(blocks, flags, out):
    """The recursion the explicit stack of ``_distinct`` replaced."""
    p = len(blocks) - 1
    dup = None
    for j in range(p + 1):
        for i in range(j + 1, p + 1):
            if blocks[j] == blocks[i]:
                dup = (j, i)
                break
        if dup:
            break
    if dup is None:
        out.add(tuple(blocks) + (blocks[0],))
        return
    j, i = dup
    for h in (j, i):
        free = blocks[h] & ~flags[h]
        for x in range(free.bit_length()):
            if free >> x & 1:
                branch = list(blocks)
                branch[h] = blocks[h] & ~(1 << x)
                _ref_distinct(branch, list(flags), out)
                flags[h] |= 1 << x


def test_distinct_stack_matches_recursion():
    rng = random.Random(8300)
    repeated = zeros = 0
    for _ in range(600):
        blocks = [rng.randint(0, 7) for _ in range(rng.randint(1, 6))]
        repeated += len(set(blocks)) < len(blocks)
        zeros += 0 in blocks
        want = set()
        _ref_distinct(list(blocks), [0] * len(blocks), want)
        assert _distinct(list(blocks)) == want, blocks
    assert repeated > 200 and zeros > 100


def test_distinct_matches_recursion_on_long_paths():
    # Seven to twelve blocks below 8: some fit in the eight submasks of
    # their OR, the rest cannot be made pairwise distinct.
    rng = random.Random(8407)
    within = past = found = 0
    for _ in range(100):
        path = tuple(rng.randint(0, 7) for _ in range(rng.randint(8, 13)))
        blocks = [path[0] & path[-1], *path[1:-1]]
        union = 0
        for b in blocks:
            union |= b
        if len(blocks) > 1 << union.bit_count():
            past += 1
        else:
            within += 1
        want = set()
        _ref_distinct(list(blocks), [0] * len(blocks), want)
        assert _distinct(list(blocks)) == want, blocks
        assert path_to_cycles(path) == want, path
        found += bool(want)
    assert within >= 20 and past >= 50 and found >= 5


def _ref_stack_distinct(blocks):
    """``_distinct``'s loop as it was before leaf branches skipped the
    stack; also says whether a branch below the root needed branching."""
    out, deep = set(), False
    stack = [(blocks, [0] * len(blocks))]
    while stack:
        blocks, flags = stack.pop()
        first, pair = {}, None
        for i, b in enumerate(blocks):
            j = first.setdefault(b, i)
            if j != i and (pair is None or j < pair[0]):
                pair = (j, i)
        if pair is None:
            out.add((*blocks, blocks[0]))
            continue
        deep |= any(flags)
        for h in pair:
            free = blocks[h] & ~flags[h]
            while free:
                low = free & -free
                branch = list(blocks)
                branch[h] ^= low
                stack.append((branch, list(flags)))
                flags[h] |= low
                free ^= low
    return out, deep


def test_distinct_matches_the_loop_that_stacked_its_leaves():
    # Two to five blocks below 16, each tuple repeating a block; some need
    # more than one level of branching (a second repeat, or a branch that
    # lands on another block).
    rng = random.Random(8512)
    deep = found = 0
    for _ in range(1500):
        n = rng.randint(2, 5)
        blocks = [rng.randint(0, 15) for _ in range(n - 1)]
        blocks.insert(rng.randint(0, n - 1), rng.choice(blocks))
        want, needs_levels = _ref_stack_distinct(list(blocks))
        assert _distinct(list(blocks)) == want, blocks
        deep += needs_levels
        found += bool(want)
    assert deep >= 300 and found >= 1000


def test_path_to_cycles_past_the_submask_bound_is_empty():
    assert path_to_cycles((1,) * 401) == set()
    assert path_to_cycles((3, 1, 2) * 14 + (3,)) == set()


@pytest.mark.parametrize("top", [7, 4095])
def test_path_to_cycles_matches_distinct_recursion(top):
    # Blocks below 8 repeat often; below 4096 they are almost always distinct.
    rng = random.Random(8100 + top)
    repeated = 0
    for _ in range(400):
        path = tuple(rng.randint(0, top) for _ in range(rng.randint(2, 6)))
        blocks = [path[0] & path[-1], *path[1:-1]]
        repeated += len(set(blocks)) < len(blocks)
        assert path_to_cycles(path) == _ref_path_to_cycles(path), path
    assert repeated > 100 if top == 7 else repeated == 0


def test_path_to_cycles_memo_on_every_short_path():
    # Every path of one to three edges over blocks below 16 takes one of the
    # direct returns or resolves a repeated block, and so does every path of
    # four edges over blocks below 8; without a memo, with a fresh one and
    # with one reused across all paths, the sets are equal.
    memo = {}
    for n, top in ((2, 16), (3, 16), (4, 16), (5, 8)):
        for path in product(range(top), repeat=n):
            plain = path_to_cycles(path)
            assert plain == _ref_path_to_cycles(path), path
            assert path_to_cycles(path, memo={}) == plain, path
            assert path_to_cycles(path, memo=memo) == plain, path
    # The memo holds only tuples that repeat a block.
    assert memo and all(len(set(blocks)) < len(blocks) for blocks in memo)


def test_path_to_cycles_memo_on_walked_paths():
    # The paths algorithm A walks on random networks, hypergraphs included,
    # with one memo per length as the search keeps it.
    hyper = repeated = hits = 0
    for seed in range(7010, 7030):
        net = random_network(random.Random(seed))
        hyper += not is_binary(net)
        for T in (1, 2):
            estar = build_maximal(net, T).edges
            for layers in _layer_chain(estar, 3):
                memo = {}
                for path in iter_layered_paths(layers):
                    blocks = (path[0] & path[-1], *path[1:-1])
                    repeated += len(set(blocks)) < len(blocks)
                    hits += blocks in memo
                    plain = path_to_cycles(path)
                    assert path_to_cycles(path, memo={}) == plain, path
                    assert path_to_cycles(path, memo=memo) == plain, path
    assert hyper >= 3 and repeated > 100 and hits > 50


def test_path_to_cycles_returns_a_new_set_per_call():
    path = (v(5), v(8), v(5), v(8), v(5))
    want = path_to_cycles(path)
    assert len(want) > 1
    memo = {}
    for _ in range(3):  # a miss, then hits
        out = path_to_cycles(path, memo=memo)
        assert out == want
        out.pop()
        out.add((0, 0))
    assert path_to_cycles(path, memo=memo) == want


# ------------------------------------------------------------ layered graph

def _edges(rows):
    """The edges of successor rows, in row order."""
    return tuple((a, b) for a, row in rows.items() for b in row)


def edges_from_matrix(matrix, row_ids, col_ids):
    return {
        (v(row_ids[i]), v(col_ids[j]))
        for i in range(len(row_ids))
        for j in range(len(col_ids))
        if matrix[i][j]
    }


def test_layer_edge_sets_match_reference(line41):
    mx = build_maximal(line41, 1)
    chain = dict(enumerate(_layer_chain(mx.edges, 3), 1))
    u0, uprime2 = chain[2]
    assert set(_edges(u0)) == edges_from_matrix(
        U0_MATRIX_41, [5, 6, 7, 8], list(range(9))
    )
    assert set(_edges(uprime2)) == edges_from_matrix(
        U1P_MATRIX_41, list(range(9)), [5, 6, 7, 8]
    )
    *_, uprime3 = chain[3]
    assert set(_edges(uprime3)) == edges_from_matrix(
        U2P_MATRIX_41, list(range(9)), [5, 6, 7, 8]
    )


def test_layered_mid_layer_is_pairwise_and_of_extremes(line41):
    mx = build_maximal(line41, 1)
    assert {b & bp for b in mx.right for bp in mx.left} == {v(i) for i in range(9)}
    assert mx.left == tuple(sorted(v(i) for i in (5, 6, 7, 8)))


def test_layered_path_counts(line41):
    counts = {}
    for k in (1, 2, 3, 4):
        lay = build_layered(line41, 1, k)
        counts[k] = count_layered_paths(lay)
        assert counts[k] == sum(1 for _ in iter_layered_paths(lay))
    assert counts[1] == 6
    assert counts[2] == 16
    assert counts[3] == 64
    # The construction defined by the layer recursion yields 224 paths at
    # k = 4 and provably covers every maximal length-4 path (see below).
    assert counts[4] == 224


def maximal_walks(graph, k):
    walks = []

    def go(path):
        if len(path) == k + 1:
            walks.append(tuple(path))
            return
        for w in graph.adjacency[path[-1]]:
            go(path + [w])

    for a in graph.vertices:
        go([a])
    packed = []
    for p in walks:
        m = 0
        for b in p:
            m = (m << 8) | b
        packed.append((m, p))
    packed.sort(key=lambda x: -x[0].bit_count())
    kept = []
    for m, p in packed:
        if not any(km != m and km & m == m for km, _ in kept):
            kept.append((m, p))
    return {p for _, p in kept}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_maximal_path_appears_in_layered_graph(line41, k):
    g = build(line41, 1)
    lay = build_layered(line41, 1, k)
    layered_paths = set(iter_layered_paths(lay))
    for path in maximal_walks(g, k):
        assert path in layered_paths


@pytest.mark.parametrize("seed", range(6))
def test_every_maximal_path_appears_in_layered_graph_random(seed):
    rng = random.Random(9000 + seed)
    net = random_network(rng)
    T = 1
    if len(net.links) > 8:
        pytest.skip("window too large")
    g = build(net, T)
    for k in (1, 2, 3):
        lay = build_layered(net, T, k)
        layered_paths = set(iter_layered_paths(lay))
        for path in maximal_walks(g, k):
            assert path in layered_paths


def _ref_next_layer(uprime_prev, estar):
    """The quadratic layer step: a middle stays unless another covers it."""
    by_outer = {}
    for a, b in uprime_prev:
        for bp, c in estar:
            by_outer.setdefault((a, c), set()).add(b & bp)
    u_new, uprime_new = set(), set()
    for (a, c), mids in by_outer.items():
        for m in mids:
            if not any(m2 != m and m2 & m == m for m2 in mids):
                u_new.add((a, m))
                uprime_new.add((m, c))
    return tuple(sorted(u_new)), tuple(sorted(uprime_new))


def layer_step_cases():
    yield line_network(4, 1), 1, 4
    yield line_network(5, 1), 2, 3
    for seed in range(7000, 7020):
        for T in (1, 2):
            yield random_network(random.Random(seed)), T, 3


def test_antichain_layer_step_matches_quadratic_step():
    # The rows of each step, read in row order, are the sorted edge sets of
    # the quadratic step.
    hyper = steps = 0
    for net, T, k in layer_step_cases():
        hyper += not is_binary(net)
        estar = build_maximal(net, T).edges
        into = _rows((c, b) for b, c in estar)
        uprime = _rows(estar)
        for _ in range(k - 1):
            u_new, uprime_new = _next_layer(uprime, into)
            assert (_edges(u_new), _edges(uprime_new)) == _ref_next_layer(_edges(uprime), estar)
            uprime = uprime_new
            steps += 1
    assert hyper >= 10 and steps == 3 + 2 + 40 * 2


def test_maximal_masks_match_the_quadratic_maxima():
    # The distinct masks that no other mask strictly contains, by pairwise
    # scan; inputs with duplicates, zeros, nested chains and no mask at all.
    rng = random.Random(7300)
    cases = [[], [0], [0, 0], [5, 5, 1], [1, 3, 7, 7, 3]]
    for _ in range(400):
        bits = rng.randint(1, 10)
        pool = [rng.getrandbits(bits) for _ in range(rng.randint(1, 8))]
        cases.append([rng.choice(pool) for _ in range(rng.randint(1, 25))])
    for masks in cases:
        ref = sorted({m for m in masks if not any(o != m and o & m == m for o in masks)})
        assert sorted(_maximal(masks)) == ref
        assert sorted(_maximal(iter(masks))) == ref


def _ref_per_pair_next_layer(uprime_rows, into):
    """The layer step before keys were grouped by row: one maxima pass per
    pair of keys."""
    u_new, uprime_new = set(), set()
    for a, bs in uprime_rows.items():
        for c, bps in into.items():
            for m in _maximal({b & bp for b in bs for bp in bps}):
                u_new.add((a, m))
                uprime_new.add((m, c))
    return _rows(u_new), _rows(uprime_new)


def row_class_cases():
    rng = random.Random(7400)
    for _ in range(30):
        net = random_network(rng)
        for T in (1, 2):
            yield net, T, 3
    for L, T, k in ((4, 1, 4), (5, 1, 4), (6, 1, 3), (4, 2, 3), (5, 2, 3), (5, 3, 3), (4, 3, 4)):
        yield line_network(L, 1), T, k
    for L in (4, 5):
        yield hyper_chain(L), 2, 3


def test_layer_step_per_row_class_matches_the_per_pair_step():
    # Keys share rows, and the grouped step gives the same two row sets as
    # one maxima pass per key pair, at every step of the chain.
    hyper = shared = steps = 0
    for net, T, k in row_class_cases():
        hyper += not is_binary(net)
        estar = build_maximal(net, T).edges
        into = _rows((c, b) for b, c in estar)
        uprime = _rows(estar)
        for _ in range(k - 1):
            shared += len(set(uprime.values())) < len(uprime)
            u_new, uprime_new = _next_layer(uprime, into)
            assert (u_new, uprime_new) == _ref_per_pair_next_layer(uprime, into)
            uprime = uprime_new
            steps += 1
    # Two steps for each of 30 random networks at T 1 and 2, then 21 over
    # the line and hyper rungs.
    assert hyper >= 10 and shared >= 50 and steps == 60 * 2 + 21


def _ref_iter_layered_paths(layers):
    """The recursive depth-first walk the explicit stack replaced, starts
    and successors sorted here rather than taken in row order."""

    def walk(prefix, depth):
        if depth == len(layers):
            yield prefix
            return
        for nxt in sorted(layers[depth].get(prefix[-1], ())):
            yield from walk(prefix + (nxt,), depth + 1)

    for start in sorted(layers[0]):
        yield from walk((start,), 0)


# The line-ladder rungs of the benchmark: (L, T, k).
LADDER_RUNGS = [(4, 1, 4), (5, 1, 4), (6, 1, 3), (4, 2, 3), (5, 2, 3)]


@pytest.mark.parametrize("L, T, k", LADDER_RUNGS)
def test_edge_path_walk_matches_recursive_walk(L, T, k):
    estar = build_maximal(line_network(L, 1), T).edges
    for layers in _layer_chain(estar, k):
        paths = list(iter_layered_paths(layers))
        assert paths == list(_ref_iter_layered_paths(layers))
        assert len(paths) > 0


def test_no_layers_hold_no_path():
    # The walk agrees with the count: it used to raise IndexError here.
    assert list(iter_layered_paths(())) == []
    assert count_layered_paths(()) == 0


def test_layer_containment_bound(line41):
    # Every later layer's edge sets sit inside the ones derived from the
    # unfiltered second-step triples.
    mx = build_maximal(line41, 1)
    estar = mx.edges
    f2 = {(a, b & bp, c) for a, b in estar for bp, c in estar}
    u_tilde_prime = {(b, c) for _, b, c in f2}
    f_tilde = {(a, b & bp, c) for a, b in u_tilde_prime for bp, c in estar}
    u_tilde = {(a, b) for a, b, _ in f_tilde}
    for k, layers in enumerate(_layer_chain(estar, 5), 1):
        if k >= 2:
            assert set(_edges(layers[-1])) <= u_tilde_prime
            assert set(_edges(layers[-2])) <= u_tilde


def test_layered_endpoints_lie_in_their_layers(line41):
    mx = build_maximal(line41, 1)
    mids = {b & bp for b in mx.right for bp in mx.left}
    for k in (2, 3, 4):
        first, *inner, last = map(_edges, build_layered(line41, 1, k))
        assert {a for a, _ in first} <= set(mx.left)
        assert {b for _, b in last} <= set(mx.right)
        for edges in [first] + inner:
            assert {b for _, b in edges} <= mids
        for edges in inner + [last]:
            assert {a for a, _ in edges} <= mids


def test_layered_rows_are_ascending():
    # The path walk takes starts and successors in row order.
    hyper = 0
    for seed in range(7030, 7050):
        net = random_network(random.Random(seed))
        hyper += not is_binary(net)
        for T in (1, 2):
            for k in (1, 3):
                for rows in build_layered(net, T, k):
                    assert list(rows) == sorted(rows)
                    for row in rows.values():
                        assert list(row) == sorted(set(row))
    assert hyper >= 3


def test_maximal_edge_count_bounded_by_edge_count(line41):
    g = build(line41, 1)
    mx = build_maximal(line41, 1)
    assert len(mx.edges) <= g.edge_count
    assert (len(mx.edges), g.edge_count) == (6, 56)


def test_layered_edges_are_scheduling_graph_edges(line41):
    w2 = build_window(line41, 2)
    mx = build_maximal(line41, 1)
    for layers in _layer_chain(mx.edges, 4):
        for rows in layers:
            for a, b in _edges(rows):
                assert w2.is_independent((a << 4) | b)


# ---------------------------------------------------------------- algorithms

def test_algorithm_a_reference_rates(line41):
    res = algorithm_a(line41, 1, 4)
    assert res.complete
    rates = {closed_path_rate(c, 1, 4) for c in pareto_filter(res.cycles, 1, 4)}
    assert (F(1, 2),) * 4 in rates
    assert (F(0), F(1), F(0), F(0)) in rates
    assert (F(0), F(0), F(1), F(0)) in rates
    assert (F(1), F(0), F(0), F(1)) in rates


def test_algorithm_a_single_free_link():
    net = make_network(["a"], {}, {})
    res = algorithm_a(net, 1, 1)
    assert res.cycles == ((1, 1),)


def test_algorithm_b_path_counts_and_rates(line41):
    mx = build_maximal(line41, 1)
    from collections import defaultdict
    adj = defaultdict(list)
    for a, b in mx.edges:
        adj[a].append(b)
    counts = {}
    for k in (1, 2, 3, 4):
        total = 0
        def go(vtx, depth):
            nonlocal total
            if depth == k:
                total += 1
                return
            for w in adj[vtx]:
                go(w, depth + 1)
        for s in sorted(adj):
            go(s, 0)
        counts[k] = total
    assert counts == {1: 6, 2: 9, 3: 15, 4: 25}

    res = algorithm_b(line41, 1, 4)
    assert res.complete
    rates = {closed_path_rate(c, 1, 4) for c in res.cycles}
    assert (F(1, 2),) * 4 in rates


def test_algorithm_b_k0_empty(line41):
    assert algorithm_b(line41, 1, 0).cycles == ()


def test_algorithm_outputs_are_valid_cycles(line41, hyper_n4):
    for net, T in ((line41, 1), (hyper_n4, 1)):
        w2 = build_window(net, 2 * T)
        w1 = build_window(net, T)
        nbits = len(net.links) * T
        for res in (algorithm_a(net, T, 3), algorithm_b(net, T, 3)):
            for cyc in res.cycles:
                assert cyc[0] == cyc[-1]
                interior = cyc[:-1]
                assert len(set(interior)) == len(interior)
                for a, b in zip(cyc, cyc[1:]):
                    assert w1.is_independent(a)
                    assert w2.is_independent((a << nbits) | b)


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_johnson_cycles_dominated_by_algorithm_a(line41, k_max):
    g = build(line41, 1)
    jres = johnson_cycles(g, max_len=k_max)
    ares = algorithm_a(line41, 1, k_max)
    for cyc in jres.cycles:
        assert any(
            cycle_dominates(c, cyc) for c in ares.cycles if len(c) == len(cyc)
        ), cyc


def test_algorithm_a_budget_truncation(line41):
    res = algorithm_a(line41, 1, 4, budget=0.0)
    assert not res.complete


def test_algorithm_b_budget_truncation(line41):
    res = algorithm_b(line41, 1, 4, budget=0.0)
    assert not res.complete


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
@pytest.mark.parametrize("steps", [10, 100, 400, 900])
def test_budget_cut_layered_search_holds_every_shorter_length(monkeypatch, search, steps):
    # Both searches walk the lengths shortest first, so a cut run holds the
    # full run's retained cycles at every length below the one it was cut in.
    net = line_network(5, 1)
    full = search(net, 2, 3)
    monkeypatch.setattr(cycles_mod, "time", step_clock())
    cut = search(net, 2, 3, budget=steps)
    assert not cut.complete and cut.cycles
    for size in range(2, max(map(len, cut.cycles))):
        assert [c for c in cut.cycles if len(c) == size] == [
            c for c in full.cycles if len(c) == size
        ]


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_budget_clock_includes_the_estar_build(monkeypatch, line41, search):
    # A fake clock that only the E* build advances, by 1 s: a 0.5 s budget
    # is spent before the first path, a 1.5 s budget never.
    now = [0.0]
    build_real = cycles_mod.build_maximal

    def slow_build(network, T):
        now[0] += 1.0
        return build_real(network, T)

    monkeypatch.setattr(cycles_mod, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(cycles_mod, "build_maximal", slow_build)
    assert search(line41, 1, 4, budget=0.5) == CycleSearchResult((), False)
    assert search(line41, 1, 4, budget=1.5) == search(line41, 1, 4)


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_search_rejects_a_bad_budget_before_building_estar(monkeypatch, line41, search):
    def no_build(network, T):
        raise AssertionError("E* built before the budget was checked")

    monkeypatch.setattr(cycles_mod, "build_maximal", no_build)
    with pytest.raises(ValueError, match="budget must be a non-negative number"):
        search(line41, 1, 4, budget=-1.0)


@pytest.mark.parametrize("budget", [True, "1"], ids=repr)
@pytest.mark.parametrize("search", [
    algorithm_a, algorithm_b,
    lambda net, T, k_max, budget: johnson_cycles(build(net, T), budget=budget),
], ids=["algorithm_a", "algorithm_b", "johnson_cycles"])
def test_search_rejects_a_budget_that_is_not_a_number(monkeypatch, line41, search, budget):
    # True ran as a 1 s budget; a string failed inside the comparison.
    def no_build(network, T):
        raise AssertionError("E* built before the budget was checked")

    monkeypatch.setattr(cycles_mod, "build_maximal", no_build)
    with pytest.raises(ValueError, match="budget must be a non-negative number"):
        search(line41, 1, 4, budget=budget)


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_search_walks_paths_deeper_than_the_recursion_limit(search):
    # One link and no collisions: one path per length, every block the
    # link's bit.  No frame may be spent per path step.
    net = make_network(["a"], {}, {})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        res = search(net, 1, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert res == CycleSearchResult(((0, 1, 0), (1, 1)), True)


def _ref_search(net, T, chains):
    """Extraction over each chain of successor rows, as walked by the
    recursive walker, then one retention over every length."""
    found = set()
    for layers in chains:
        for path in _ref_iter_layered_paths(layers):
            found.update(map(canonical_cycle, path_to_cycles(path)))
    return CycleSearchResult(tuple(_ref_retain_maximal(found, len(net.links) * T)), True)


def _chains(search, net, T, k):
    """The chains of successor rows a search walks, one per length."""
    estar = build_maximal(net, T).edges
    if search is algorithm_a:
        return list(_layer_chain(estar, k))
    return [[_rows(estar)] * n for n in range(1, k + 1)]


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_searches_match_unfiltered_retention_on_random_networks(search):
    # The wrap filter drops only strictly dominated candidates, so each
    # search equals extraction followed by one retention of every candidate.
    # Draws with more than 5,000 paths of length 3 are left to the ladder.
    checked = hyper = 0
    for seed in range(9300, 9360):
        net = random_network(random.Random(seed))
        for T in (1, 2):
            chains = _chains(search, net, T, 3)
            if count_layered_paths(chains[-1]) > 5000:
                continue
            checked += 1
            hyper += not is_binary(net)
            for k in (1, 2, 3):
                assert search(net, T, k) == _ref_search(net, T, chains[:k]), (seed, T, k)
    assert checked >= 100 and hyper >= 20



@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_searches_extract_each_walked_path_once(monkeypatch, search):
    # A length is walked interior by interior, yet extraction is handed the
    # paths the plain walk yields, each as often as the walk yields it.
    # Draws with more than 5,000 paths of length 3 are left to the ladder.
    handed = Counter()

    def extract(path, **kwargs):
        handed[path] += 1
        return path_to_cycles(path, **kwargs)

    def check(net, T, chains):
        handed.clear()
        search(net, T, len(chains))
        assert handed == Counter(p for layers in chains for p in iter_layered_paths(layers))

    monkeypatch.setattr(cycles_mod, "path_to_cycles", extract)
    for L, T, k in LADDER_RUNGS:
        net = line_network(L, 1)
        check(net, T, _chains(search, net, T, k))
    checked = hyper = 0
    for seed in range(9400, 9440):
        net = random_network(random.Random(seed))
        for T in (1, 2):
            chains = _chains(search, net, T, 3)
            if count_layered_paths(chains[-1]) <= 5000:
                check(net, T, chains)
                checked += 1
                hyper += not is_binary(net)
    assert checked >= 60 and hyper >= 10


@pytest.mark.parametrize("net, T, k", [
    (line_network(4, 1), 2, 4),
    (hyper_chain(4), 2, 3),
    (line_network(6, 1), 2, 3),
], ids=["line-L4-T2-k4", "hyper-chain4-T2-k3", "line-L6-T2-k3"])
def test_layered_search_memory_peak(net, T, k):
    # No set of a whole length's raw cycles is held: with one, the peak of
    # the first two searches was 2.6 and 2.2 MB; walked by interior, 0.7 MB.
    # Each interior's wraps are reduced to their maxima as they come: kept
    # whole, L6 T2 k3's peak was 2.2 MB, where it is 1.35 MB.
    tracemalloc.start()
    try:
        algorithm_a(net, T, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_time_reversal_keeps_the_region(search):
    # Negating every delay reverses every schedule in time, which keeps its
    # rate.  The layered cover is not symmetric in time, so the searches
    # walk other layers on the reversal, and must still find the same region.
    hyper = 0
    for seed in range(120):
        net = random_network(random.Random(seed))
        rev = make_network(net.links, net.collisions, {p: -d for p, d in net.delays.items()})
        hyper += not is_binary(net)
        for T in (1, 2) if seed < 30 else (1,):
            for k in (1, 2, 3):
                assert (region_from_cycles(net, search(net, T, k).cycles, T).generators
                        == region_from_cycles(rev, search(rev, T, k).cycles, T).generators), (
                    seed, T, k)
    assert hyper >= 30

def _raw_and_groups(monkeypatch, search, net, T, k):
    """The raw cycles each length extracts and the group it hands to retention."""
    raw = defaultdict(set)
    groups = []

    def extract(path, **kwargs):
        out = path_to_cycles(path, **kwargs)
        raw[len(path)].update(out)
        return out

    def spy(group):
        groups.append(set(group))
        return _retain_maximal(group)

    monkeypatch.setattr(cycles_mod, "path_to_cycles", extract)
    monkeypatch.setattr(cycles_mod, "_retain_maximal", spy)
    search(net, T, k)
    # Groups come one per length, shortest first; a length-n path has n + 1 blocks.
    return [raw[n + 2] for n in range(len(groups))], groups


def _maximal_wrap_cycles(raw):
    """Reference of the filter, quadratic in each interior's wraps: the raw
    cycles whose wrap no raw cycle with the same interior strictly contains."""
    wraps = defaultdict(set)
    for c in raw:
        wraps[c[1:-1]].add(c[0])
    return {
        (w, *mid, w) for mid, ws in wraps.items() for w in ws
        if not any(x != w and x & w == w for x in ws)
    }


def test_rotations_match_canonical_cycle():
    # Wraps below, equal to and above the interior's least block, a least
    # block that repeats, and the empty interior of a 1-cycle.
    assert _rotations((), [3, 0]) == [(3, 3), (0, 0)]
    assert _rotations((2, 5, 2), [2, 1, 4]) == [(2, 2, 5, 2, 2), (1, 2, 5, 2, 1),
                                                (2, 5, 2, 4, 2)]
    rng = random.Random(8400)
    for _ in range(2000):
        mid = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 5)))
        wraps = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        wraps += [min(mid)] if mid else []
        assert _rotations(mid, wraps) == [canonical_cycle((w, *mid, w)) for w in wraps]


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_retention_receives_the_maximal_wraps_of_each_interior(monkeypatch, search):
    # Each group is the canonical candidates whose raw form has a maximal
    # wrap among the raw cycles of its interior: no raw cycle handed on has
    # a wrap strictly inside another of its interior, and no wrap that is
    # incomparable with the others is dropped.  The property holds of raw
    # forms: rotating two kept cycles can line up their interiors.
    nets = [(line_network(4, 1), 2, 3), (line_network(5, 1), 1, 4), (hyper_chain(4), 2, 3)]
    nets += [(random_network(random.Random(seed)), T, 3)
             for seed in range(7000, 7020) for T in (1, 2)]
    dropped = incomparable = 0
    for net, T, k in nets:
        raws, groups = _raw_and_groups(monkeypatch, search, net, T, k)
        for raw, group in zip(raws, groups):
            cands = set(map(canonical_cycle, raw))
            survivors = _maximal_wrap_cycles(raw)
            assert group <= cands
            assert group == set(map(canonical_cycle, survivors))
            dropped += len(cands) - len(group)
            interiors = [c[1:-1] for c in survivors]
            incomparable += len(interiors) - len(set(interiors))
    assert dropped > 0 and incomparable > 0


def test_retention_does_not_depend_on_the_order_within_a_total(monkeypatch):
    # Each group holds one canonical form per rotation class, so only a
    # cycle of a larger total can cover another.  Shuffled lists, whose
    # order the stable sort keeps within each total, keep what the tuple
    # order keeps.
    nets = [(line_network(L, 1), T, k) for L, T, k in LADDER_RUNGS]
    nets += [(random_network(random.Random(seed)), T, 3)
             for seed in range(7000, 7020) for T in (1, 2)]
    rng = random.Random(2801)
    groups = 0
    for net, T, k in nets:
        for group in _raw_and_groups(monkeypatch, algorithm_a, net, T, k)[1]:
            classes = {frozenset(c[i:-1] + c[:i] for i in range(len(c) - 1)) for c in group}
            assert len(classes) == len(group)
            kept = _retain_maximal(sorted(group))
            for _ in range(3):
                order = list(group)
                rng.shuffle(order)
                assert _retain_maximal(order) == kept
            groups += 1
    assert groups > 100


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
@pytest.mark.parametrize("steps", [10, 100, 400, 900])
def test_budget_cut_length_is_retained_as_its_partial_candidates(monkeypatch, search, steps):
    # The length a budget cuts keeps what one unfiltered retention of the
    # canonical candidates extracted before the cut keeps.
    cands = defaultdict(set)
    last = []

    def extract(path, **kwargs):
        out = path_to_cycles(path, **kwargs)
        cands[len(path)].update(map(canonical_cycle, out))
        last[:] = [len(path)]
        return out

    monkeypatch.setattr(cycles_mod, "path_to_cycles", extract)
    monkeypatch.setattr(cycles_mod, "time", step_clock())
    cut = search(line_network(5, 1), 2, 3, budget=steps)
    assert not cut.complete
    (size,) = last
    assert [c for c in cut.cycles if len(c) == size] == _ref_retain_maximal(cands[size], 10)
    assert max(map(len, cut.cycles)) == size


def test_layered_searches_build_each_adjacency_once(monkeypatch, line41):
    # Algorithm A builds E*'s rows and predecessor rows once, then each
    # length adds two row sets to its chain; algorithm B walks the one
    # maximal-edge row set at every length.
    estar = build_maximal(line41, 1).edges
    chains_a = list(_layer_chain(estar, 5))
    chains_b = [[_rows(estar)] * k for k in range(1, 6)]
    calls = []

    def counting(edges):
        calls.append(1)
        return _rows(edges)

    monkeypatch.setattr(cycles_mod, "_rows", counting)
    for search, chains, expected in ((algorithm_a, chains_a, 10), (algorithm_b, chains_b, 1)):
        calls.clear()
        assert search(line41, 1, 5) == _ref_search(line41, 1, chains)
        assert len(calls) == expected


@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_search_rejects_negative_k_max(line41, search):
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        search(line41, 1, -1)
    assert search(line41, 1, 0) == CycleSearchResult((), True)


@pytest.mark.parametrize("k_max", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("search", [algorithm_a, algorithm_b])
def test_layered_search_rejects_a_k_max_that_is_not_an_int(line41, search, k_max):
    with pytest.raises(ValueError, match=f"bad k_max {k_max!r}"):
        search(line41, 1, k_max)


@pytest.mark.parametrize("k, message", [
    (0, "k must be >= 1"), (-1, "k must be >= 1"), (True, "bad k True"), (2.5, "bad k 2.5"),
], ids=["zero", "negative", "bool", "float"])
def test_build_layered_rejects_a_bad_k(line41, k, message):
    with pytest.raises(ValueError, match=message):
        build_layered(line41, 1, k)


# ------------------------------------------------------------------ retention

def retain_oracle(cands):
    """Quadratic reference: a cycle goes if another strictly dominates it up
    to rotation; of a rotation class only the least tuple stays."""
    bits = {c: sum(b.bit_count() for b in c[:-1]) for c in cands}
    return sorted(
        c for c in cands
        if not any(
            c2 != c and bits[c2] >= bits[c] and cycle_dominates(c2, c)
            and (c2 < c or not cycle_dominates(c, c2))
            for c2 in cands
        )
    )


@pytest.mark.parametrize("net_id, T, k", [("L4", 2, 3), ("L5", 1, 4), ("hyper7004", 2, 3)])
def test_retain_maximal_matches_quadratic_oracle(monkeypatch, net_id, T, k):
    if net_id.startswith("hyper"):
        net = random_network(random.Random(int(net_id[5:])))
        assert not is_binary(net)
    else:
        net = line_network(int(net_id[1:]), 1)
    seen = []
    cands = set()

    def spy(group):
        seen.append(set(group))
        return _retain_maximal(group)

    def extract(path, **kwargs):
        out = path_to_cycles(path, **kwargs)
        cands.update(map(canonical_cycle, out))
        return out

    monkeypatch.setattr(cycles_mod, "_retain_maximal", spy)
    monkeypatch.setattr(cycles_mod, "path_to_cycles", extract)
    res = algorithm_a(net, T, k)
    # One call per walked length, shortest first, each on that length alone.
    assert [{len(c) for c in group} for group in seen] == [{n + 1} for n in range(1, k + 1)]
    # The wrap filter and retention together against the oracle over every
    # canonical candidate, as extracted.
    assert len(cands) > 5 * len(res.cycles)
    assert list(res.cycles) == retain_oracle(cands)


def test_retain_maximal_rotations_and_mixed_lengths():
    # Two bits per block.  (1, 1, 2) is covered only by the rotation
    # (3, 1, 2) of the earlier (1, 2, 3); (1, 1) goes to (3, 3); the lone
    # 2-cycle survives next to longer packed cycles; (1, 3, 1, 2) is a
    # rotation of (1, 2, 1, 3), so only the lesser tuple stays.
    cands = [
        (1, 2, 3, 1), (1, 1, 2, 1), (3, 3), (1, 1), (1, 2, 1),
        (1, 3, 1, 2, 1), (1, 2, 1, 3, 1),
    ]
    expected = [(1, 2, 1), (1, 2, 1, 3, 1), (1, 2, 3, 1), (3, 3)]
    by_len = defaultdict(set)
    for c in cands:
        by_len[len(c)].add(c)
    assert sorted(c for group in by_len.values() for c in _retain_maximal(group)) == expected
    assert retain_oracle(set(cands)) == expected


def _ref_retain_maximal(cycles, nbits):
    """The retention the bit-sliced cover masks replaced: cycles packed into
    one int each, candidates rotated to their fullest block and tested
    against the kept rotations indexed by their first two blocks."""
    by_len = defaultdict(set)
    for c in cycles:
        by_len[len(c)].add(c)
    out = []
    low = (1 << nbits) - 1
    for size, group in by_len.items():
        width = (size - 1) * nbits
        full = (1 << width) - 1
        index = defaultdict(lambda: defaultdict(list))
        for c in sorted(group, key=lambda c: (-sum(b.bit_count() for b in c[:-1]), c)):
            packed = sum(b << i * nbits for i, b in enumerate(c[:-1]))
            s = max(range(size - 1), key=lambda i: c[i].bit_count()) * nbits
            q = (packed >> s | packed << width - s) & full
            h0, h1 = q & low, q >> nbits & low
            if not any(
                rot & q == q
                for k0, heads in index.items() if k0 & h0 == h0
                for k1, rots in heads.items() if k1 & h1 == h1
                for rot in rots
            ):
                out.append(c)
                for s in range(0, width, nbits):
                    rot = (packed << s | packed >> width - s) & full
                    index[rot & low][rot >> nbits & low].append(rot)
    return sorted(out)


def retention_input(monkeypatch, search, net, T, k):
    """The candidate group of each length that a search hands to retention."""
    seen = []
    monkeypatch.setattr(cycles_mod, "_retain_maximal", lambda group: seen.append(set(group)) or [])
    search(net, T, k)
    return seen


@pytest.mark.parametrize("search, L, T, k", [
    *((algorithm_a, *rung) for rung in LADDER_RUNGS),
    (algorithm_b, 4, 1, 4),
    (algorithm_b, 5, 2, 3),
])
def test_retain_maximal_matches_head_index_on_ladder(monkeypatch, search, L, T, k):
    kept = cands = 0
    for group in retention_input(monkeypatch, search, line_network(L, 1), T, k):
        retained = _retain_maximal(group)
        assert retained == _ref_retain_maximal(group, L * T)
        kept += len(retained)
        cands += len(group)
    assert 0 < kept < cands


def test_retain_maximal_matches_head_index_on_random_networks(monkeypatch):
    hyper = 0
    for seed in range(7000, 7040):
        net = random_network(random.Random(seed))
        hyper += not is_binary(net)
        for T in (1, 2):
            for group in retention_input(monkeypatch, algorithm_a, net, T, 3):
                assert _retain_maximal(group) == _ref_retain_maximal(group, len(net.links) * T)
    assert hyper >= 10


# -------------------------------------------------------------- pareto filter

def test_pareto_filter_common_denominator():
    # Over two links, the 2-cycle and the 4-cycle both have rate (1/2, 1/2):
    # equal once counts are scaled to one denominator, so both stay.  The
    # 3-cycle's (1/3, 1/3) is dominated although its raw counts equal the
    # 2-cycle's.
    two = (0b10, 0b01, 0b10)
    four = (0b00, 0b10, 0b01, 0b11, 0b00)
    three = (0b00, 0b10, 0b01, 0b00)
    solo = (0b10, 0b10)
    assert pareto_filter([four, three, two, solo], 1, 2) == sorted([two, four, solo])
    assert closed_path_rate(two, 1, 2) == closed_path_rate(four, 1, 2) == (F(1, 2),) * 2


def _ref_rate_numerators(paths, T, num_links):
    """Each path's counts summed link by link, block by block."""
    if any(len(p) < 2 or p[0] != p[-1] for p in paths):
        raise ValueError("path is not closed")
    masks = link_row_masks(num_links, T)
    period = lcm(*(len(p) - 1 for p in paths))
    numerators = []
    for p in paths:
        scale = period // (len(p) - 1)
        numerators.append(tuple(
            scale * sum((block & m).bit_count() for block in p[:-1]) for m in masks
        ))
    return numerators, period * T


def test_rate_numerators_match_the_per_link_sum():
    # Lengths 1-6 in one call make the period an lcm; all-ones blocks fill
    # every field to period * T.
    rng = random.Random(8300)
    full = 0
    for _ in range(400):
        num_links, T = rng.randint(1, 6), rng.randint(1, 4)
        ones = (1 << num_links * T) - 1
        paths = []
        for _ in range(rng.randint(1, 6)):
            blocks = [rng.choice([0, ones, rng.getrandbits(num_links * T)])
                      for _ in range(rng.randint(1, 6))]
            paths.append((*blocks, blocks[0]))
        got = rate_numerators(paths, T, num_links)
        assert got == _ref_rate_numerators(paths, T, num_links), (paths, T, num_links)
        full += any(x == got[1] for r in got[0] for x in r)
    assert full > 50
    ones = (1 << 12) - 1
    assert rate_numerators([(ones,) * 7, (ones, ones)], 3, 4) == ([(18,) * 4] * 2, 18)
    assert rate_numerators([], 2, 3) == ([], 2)
    with pytest.raises(ValueError, match="path is not a closed block path"):
        rate_numerators([(1, 1), (1, 2)], 1, 2)


@pytest.mark.parametrize("T", [True, 2.0, 0], ids=repr)
@pytest.mark.parametrize("read", [rate_numerators, pareto_filter], ids=lambda f: f.__name__)
def test_empty_input_still_checks_the_window_length(read, T):
    # With no block to check, 2.0 raised TypeError, True was read as 1 and
    # 0 gave a zero denominator.
    with pytest.raises(ValueError, match="window length"):
        read([], T, 4)


def _guards(width, dim):
    return sum(1 << (width * j + width - 1) for j in range(dim))


def _unpack(packed, width, dim):
    return tuple(packed >> width * j & (1 << width) - 1 for j in range(dim))


def _packed_front(vectors, dim):
    """``_pareto_front`` on the vectors packed as ``_packed_rates`` packs
    them (link 0 lowest, a clear guard bit atop each field), unpacked."""
    width = max((x for r in vectors for x in r), default=0).bit_length() + 1
    packed = [sum(x << width * j for j, x in enumerate(r)) for r in vectors]
    front = _pareto_front(packed, _guards(width, dim))
    assert front == sorted(set(front), reverse=True)
    return [_unpack(f, width, dim) for f in front]


def test_pareto_front_matches_quadratic_filter():
    # The quadratic scan window_symmetric_rate used before the shared front.
    rng = random.Random(8100)
    for _ in range(300):
        dim = rng.randint(1, 5)
        vectors = [
            tuple(rng.randint(0, 4) for _ in range(dim))
            for _ in range(rng.randint(0, 60))
        ]
        distinct = set(vectors)
        quadratic = [
            s for s in distinct
            if not any(
                s2 != s and all(a >= b for a, b in zip(s2, s)) for s2 in distinct
            )
        ]
        front = _packed_front(vectors, dim)
        assert len(front) == len(set(front))
        assert sorted(front) == sorted(quadratic)


def _loop_pareto_front(vectors):
    # The tuple loop the packed guard-bit front replaced, kept as its oracle.
    front = []
    for r in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(x >= y for x, y in zip(f, r)) for f in front):
            front.append(r)
    return front


@pytest.mark.parametrize("L, T, k, search", [
    (4, 1, 4, algorithm_a), (5, 1, 4, algorithm_a), (6, 1, 3, algorithm_a),
    (4, 2, 3, algorithm_a), (5, 2, 3, algorithm_a),
    (4, 1, 4, algorithm_b), (5, 2, 3, algorithm_b),
])
def test_packed_pareto_front_matches_loop_on_ladder(L, T, k, search):
    # The packed rates pareto_filter hands the front on each benchmark rung.
    cycles = search(line_network(L, 1), T, k).cycles
    rates, den, width = _packed_rates(cycles, T, L)
    numerators, _ = rate_numerators(cycles, T, L)
    assert [_unpack(r, width, L) for r in rates] == numerators
    assert width == den.bit_length() + 1
    front = _pareto_front(rates, _guards(width, L))
    assert front == sorted(set(front), reverse=True)
    assert sorted(_unpack(f, width, L) for f in front) == sorted(_loop_pareto_front(numerators))


def test_packed_pareto_front_matches_loop_on_random_vectors():
    # Zeros, equal sums and duplicates; entries wide enough to span fields
    # of different widths, and the empty and zero-length cases.
    rng = random.Random(1313)
    assert _pareto_front([], _guards(3, 2)) == [] and _pareto_front([0, 0], 0) == [0]
    for _ in range(400):
        dim = rng.randint(1, 7)
        top = rng.choice((1, 2, 7, 100, 2**40))
        vectors = [
            tuple(rng.randint(0, top) if rng.random() < 0.7 else 0 for _ in range(dim))
            for _ in range(rng.randint(0, 40))
        ]
        vectors += rng.sample(vectors, len(vectors) // 3)
        vectors += [tuple(rng.sample(r, dim)) for r in vectors[:5]]  # ties in sum
        assert sorted(_packed_front(vectors, dim)) == sorted(_loop_pareto_front(vectors))


def test_pareto_filter_returns_sorted_distinct_kept_cycles():
    # Unsorted input with duplicates, and the same cycles from a generator.
    two = (0b10, 0b01, 0b10)
    four = (0b00, 0b10, 0b01, 0b11, 0b00)
    three = (0b00, 0b10, 0b01, 0b00)
    solo = (0b10, 0b10)
    low = (0b01, 0b01)
    cycles = [solo, four, three, two, low, solo, two, four, three]
    kept = sorted({two, four, solo, low})
    assert pareto_filter(cycles, 1, 2) == kept
    assert pareto_filter((c for c in cycles), 1, 2) == kept
    assert pareto_filter(iter([]), 1, 2) == []


def test_pareto_filter_drops_zero_cycle(line41):
    kept = pareto_filter([(0, 0), (v(5), v(5))], 1, 4)
    assert kept == [(v(5), v(5))]


def test_pareto_filter_keeps_equal_rate_witnesses():
    # Two distinct 2-cycles with identical rate vectors both survive.
    a = (0b10, 0b01, 0b10)
    b = (0b01, 0b10, 0b01)
    kept = pareto_filter([a, b], 1, 2)
    assert set(kept) == {a, b}


def test_pareto_filter_reference_vectors(line41):
    res = algorithm_a(line41, 1, 4)
    kept = pareto_filter(res.cycles, 1, 4)
    rates = {closed_path_rate(c, 1, 4) for c in kept}
    for r in rates:
        assert not any(
            r2 != r and all(x >= y for x, y in zip(r2, r)) for r2 in rates
        )
