import random
import tracemalloc

import pytest

from delaysched import (
    CapExceededError,
    InvalidNetworkError,
    build_window,
    closed_path_rate,
    has_edge,
    is_vertex,
    line_network,
    make_network,
    schedule_from_closed_path,
    validate,
)
from delaysched.window import (
    WindowGraph,
    bit_position,
    block_from_rows,
    block_to_rows,
    check_block,
    check_closed,
    check_int,
    join_pair,
    split_pair,
)

from delaysched.network import is_binary
from delaysched.region import region_from_cycles, window_symmetric_rate
from delaysched.schedgraph import build, build_maximal, schedule_is_path

from conftest import hyper_chain, random_network


def _ref_window_masks(network, T):
    """Masks from (link, slot) hyperedges, sorted by source then targets."""
    L = len(network.links)
    edges = set()
    for link in network.links:
        for phi in network.profile(link):
            offsets = {lp: network.delay(link, lp) for lp in phi}
            for t in range(T):
                targets = frozenset((lp, t + d) for lp, d in offsets.items())
                if all(0 <= tt < T for _, tt in targets):
                    edges.add(((link, t), targets))
    ordered = sorted(edges, key=lambda e: (e[0], sorted(e[1])))
    masks = []
    for (src, targets) in ordered:
        m = 1 << bit_position(network.link_index(src[0]), src[1], L, T)
        for (lp, tt) in targets:
            m |= 1 << bit_position(network.link_index(lp), tt, L, T)
        masks.append(m)
    return tuple(dict.fromkeys(masks))


WINDOW_MASK_CASES = (
    [(f"L{L}-T{T}", line_network(L, 1), T) for L in range(3, 7) for T in range(1, 5)]
    + [(f"chain{n}-T{T}", hyper_chain(n), T) for n in (4, 5, 6) for T in (1, 2, 3)]
    + [
        (f"random{seed}-T{T}", random_network(random.Random(seed)), T)
        for seed in range(7000, 7200)
        for T in (1, 2, 3)
    ]
)


def test_window_masks_match_hyperedge_build_in_order():
    assert len(WINDOW_MASK_CASES) == 16 + 9 + 600
    for name, net, T in WINDOW_MASK_CASES:
        for TT in (T, 2 * T):
            assert build_window(net, TT).masks == _ref_window_masks(net, TT), (name, TT)


@pytest.mark.parametrize("missing, outside", [("b", "c"), ("c", "b")])
def test_missing_delay_raises_even_beside_an_edge_outside_the_window(missing, outside):
    # Unvalidated: one member of a's collision set has no delay, the
    # other's delay puts every edge of the set outside the window.
    net = make_network(["a", "b", "c"], {"a": [["b", "c"]]}, {("a", outside): 5})
    with pytest.raises(InvalidNetworkError, match="unspecified"):
        build_window(net, 2)


def test_a_set_wider_than_the_window_allocates_nothing_for_its_span():
    # The set spans 10**8 + 1 slots, so it fits no window of 2 slots.
    net = make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): 10**8})
    tracemalloc.start()
    try:
        window = build_window(net, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window.masks == ()
    assert peak < 2**20


@pytest.mark.parametrize("d", [5, 0])
def test_unknown_link_in_collision_set_raises_invalid_network(d):
    # Unvalidated: the delay puts the edge outside the window (5) or in it (0).
    net = make_network(["a"], {"a": [["zz"]]}, {("a", "zz"): d})
    with pytest.raises(InvalidNetworkError, match="unknown link 'zz'"):
        build_window(net, 2)


@pytest.mark.parametrize(
    "net", [line_network(4, 1), line_network(6, 1), hyper_chain(4), hyper_chain(5)]
)
@pytest.mark.parametrize("T", [1, 2, 3])
def test_pair_juxtaposes_the_rows_of_its_blocks(net, T):
    rng = random.Random(1100 + T)
    L = len(net.links)
    nbits = L * T
    for _ in range(50):
        a, b = rng.getrandbits(nbits), rng.getrandbits(nbits)
        rows = [ra + rb for ra, rb in zip(block_to_rows(a, L, T), block_to_rows(b, L, T))]
        pair = join_pair(a, b, nbits)
        assert pair == block_from_rows(rows, 2 * T)
        assert split_pair(pair, nbits) == (a, b)


NOT_INT_WINDOWS = [True, 1.5, 2.0, "2", None]


@pytest.mark.parametrize("T", NOT_INT_WINDOWS, ids=repr)
@pytest.mark.parametrize("builder", [
    build_window, build, build_maximal, window_symmetric_rate,
    lambda net, T: region_from_cycles(net, [], T),
], ids=["build_window", "build", "build_maximal", "window_symmetric_rate", "region_from_cycles"])
def test_a_window_length_that_is_not_an_int_is_rejected(builder, T):
    # A bool would run as T=1, a float would fail inside ``range``.
    with pytest.raises(ValueError, match=f"bad window length {T!r}"):
        builder(line_network(4, 1), T)


@pytest.mark.parametrize("T", NOT_INT_WINDOWS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda T: closed_path_rate([0, 0], T, 4),
    lambda T: is_vertex(line_network(4, 1), 0, T),
    lambda T: has_edge(line_network(4, 1), 0, 0, T),
    lambda T: schedule_is_path(line_network(4, 1), schedule_from_closed_path([0, 0], 1, 4), T),
    lambda T: schedule_from_closed_path([0, 0], T, 4),
    lambda T: block_from_rows(["0"] * 4, T),
], ids=["closed_path_rate", "is_vertex", "has_edge", "schedule_is_path",
        "schedule_from_closed_path", "block_from_rows"])
def test_a_block_function_rejects_a_window_length_that_is_not_an_int(call, T):
    # The length is checked before the blocks are, which would shift by a float.
    with pytest.raises(ValueError, match=f"bad window length {T!r}"):
        call(T)


def test_line41_single_slot_window(line41):
    w = build_window(line41, 1)
    assert set(w.masks) == {
        block_from_rows(["1", "0", "1", "0"], 1),
        block_from_rows(["0", "1", "0", "1"], 1),
    }


def test_all_nonzero_delays_give_empty_single_slot_window():
    net = make_network(
        ["a", "b"], {"a": [["b"]], "b": [["a"]]},
        {("a", "b"): 1, ("b", "a"): -1},
    )
    validate(net)
    assert build_window(net, 1).masks == ()


def test_hyper_window_contains_straddling_edge(hyper_n4):
    w = build_window(hyper_n4, 3)
    assert block_from_rows(["100", "010", "001", "000"], 3) in w.masks


def test_edges_reaching_outside_are_dropped_not_truncated(hyper_n4):
    w = build_window(hyper_n4, 2)
    # Both straddling edges need three consecutive slots; none fit in two.
    assert w.masks == ()


def test_is_independent_reference_cases(hyper_n4):
    w3 = build_window(hyper_n4, 3)
    assert w3.is_independent(0)
    s_prime = block_from_rows(["100", "110", "011", "001"], 3)
    assert not w3.is_independent(s_prime)
    for l in range(4):
        for t in range(3):
            single = block_from_rows(
                ["".join("1" if (i, j) == (l, t) else "0" for j in range(3))
                 for i in range(4)], 3)
            assert w3.is_independent(single)


def test_block_row_roundtrip():
    rows = ["10", "01", "11", "00"]
    bits = block_from_rows(rows, 2)
    assert block_to_rows(bits, 4, 2) == rows


def _probe_rows(bits, num_links, T):
    """Reference reader: each entry probed at its ``bit_position``."""
    return [
        "".join("1" if bits >> bit_position(l, t, num_links, T) & 1 else "0" for t in range(T))
        for l in range(num_links)
    ]


def _probe_block(rows, T):
    """Reference writer: each row checked, then each 1 set at its ``bit_position``."""
    check_int("window length", T, 1)
    bits = 0
    for l, row in enumerate(rows):
        if len(row) != T:
            raise ValueError(f"row {l} has length {len(row)}, expected {T}")
        for t, ch in enumerate(row):
            if ch == "1":
                bits |= 1 << bit_position(l, t, len(rows), T)
            elif ch != "0":
                raise ValueError(f"row {l} has non-binary character {ch!r}")
    return bits


def _raised(call, *args):
    with pytest.raises(Exception) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


def test_digit_rows_match_the_bit_probes():
    # Blocks with bits above the window and negative ints read as their
    # low num_links * T bits do; rows, as strings or as lists of
    # one-character strings, pack back to those bits.
    rng = random.Random(53)
    checked = 0
    for num_links in range(7):
        for T in range(1, 7):
            n = num_links * T
            blocks = [0, (1 << n) - 1, 1 << n, -1, -(1 << n)]
            blocks += [rng.getrandbits(n + 8) for _ in range(195)]
            blocks += [-rng.getrandbits(n + 8) - 1 for _ in range(100)]
            for bits in blocks:
                rows = block_to_rows(bits, num_links, T)
                assert rows == _probe_rows(bits, num_links, T), (bits, num_links, T)
                low = bits & (1 << n) - 1
                assert block_from_rows(rows, T) == _probe_block(rows, T) == low
                assert block_from_rows([list(r) for r in rows], T) == low
                checked += 1
    assert checked == 12_600


@pytest.mark.parametrize("rows, T", [
    (["10", "0"], 2),
    (["10", "011"], 2),
    (["10", "2"], 2),
    (["1x", "00"], 2),
    ([["1", "10"], ["0", "0"]], 2),
    ([["1", ""], ["0", "0"]], 2),
    ([[1, 0], ["0", "0"]], 2),
    (["01", "02", "1"], 2),
    (["10", "01"], 0),
    (["10", "01"], 2.0),
    (["10", "01"], True),
], ids=repr)
def test_a_bad_row_or_length_raises_what_the_bit_probes_raise(rows, T):
    assert _raised(block_from_rows, rows, T) == _raised(_probe_block, rows, T)


def test_enumeration_counts(line41, hyper_n4):
    assert sum(1 for _ in build_window(line41, 1).independent_sets()) == 9
    assert sum(1 for _ in build_window(hyper_n4, 1).independent_sets()) == 16
    free = make_network(["a", "b", "c"], {}, {})
    assert sum(1 for _ in build_window(free, 1).independent_sets()) == 8


def test_enumeration_is_sorted_and_unique(line41):
    out = list(build_window(line41, 2).independent_sets())
    assert out == sorted(set(out))


def test_enumeration_cap(monkeypatch, hyper_n4):
    free = make_network([f"l{i}" for i in range(30)], {}, {})
    with pytest.raises(CapExceededError):
        list(build_window(free, 1).independent_sets())
    # Maximal sets under hyperedges stay held to the cap: 28 bits.
    with pytest.raises(CapExceededError):
        build_window(hyper_n4, 7).maximal_independent_sets()
    monkeypatch.setenv("DELAYSCHED_CAP_BITS", "30")
    gen = build_window(free, 1).independent_sets()
    assert next(gen) == 0


@pytest.mark.parametrize("capped", [build, window_symmetric_rate])
def test_a_capped_window_is_refused_before_it_is_built(capped):
    # Two links at delays -1/+1, T 5,000: 10,000 bits, each mask a
    # 10,000-bit (or doubled, 20,000-bit) int, one per link and slot.
    net = make_network(["a", "b"], {"a": [["b"]], "b": [["a"]]},
                       {("a", "b"): 1, ("b", "a"): -1})
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="^10000 bits exceeds brute-force cap 24$"):
            capped(net, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("value", ["abc", "1.5", "12 bits"])
def test_cap_bits_that_is_not_an_int_names_the_variable(monkeypatch, line41, value):
    monkeypatch.setenv("DELAYSCHED_CAP_BITS", value)
    with pytest.raises(ValueError, match=f"DELAYSCHED_CAP_BITS must be an int, got '{value}'"):
        list(build_window(line41, 1).independent_sets())


# Random draws whose window stays within 14 bits, so brute force is cheap.
ORACLE_RANDOM_WINDOWS = [
    (seed, T, w)
    for seed in range(8000, 8040)
    for net in [random_network(random.Random(seed))]
    for T in (1, 2)
    for w in [build_window(net, T)]
    if w.nbits <= 14
]


def test_enumeration_matches_brute_force(line41, hyper_n4):
    windows = [build_window(net, T) for net in (line41, hyper_n4) for T in (1, 2, 3)]
    windows += [w for _, _, w in ORACLE_RANDOM_WINDOWS]
    assert {is_binary(w.network) for _, _, w in ORACLE_RANDOM_WINDOWS} == {True, False}
    for w in windows:
        brute = [b for b in range(1 << w.nbits) if w.is_independent(b)]
        assert list(w.independent_sets()) == brute


def test_windows_past_the_recursion_limit(monkeypatch):
    # One free link at T 600: a binary doubled window of 1,200 bits whose
    # one maximal set takes every slot.
    free = make_network(["a"], {}, {})
    assert len(build_maximal(free, 600).edges) == 1
    # One 3-bit hyperedge spanning all 400 slots: 1,200 bits under the cap.
    monkeypatch.setenv("DELAYSCHED_CAP_BITS", "1200")
    net = make_network(["a", "b", "c"], {"a": [["b", "c"]]}, {("a", "b"): 0, ("a", "c"): 399})
    w = build_window(net, 400)
    assert (w.nbits, len(w.masks)) == (1200, 1)
    assert next(w.independent_sets()) == 0
    assert len(w.maximal_independent_sets()) == 3


def test_maximal_sets_line41_double_window(line41):
    w2 = build_window(line41, 2)
    expected = {
        (vl, vr)
        for vl, vr in [("1001", "1001"), ("1001", "0011"), ("1100", "1001"),
                       ("0110", "1100"), ("0011", "1100"), ("0011", "0110")]
    }
    got = set()
    for bits in w2.maximal_independent_sets():
        rows = block_to_rows(bits, 4, 2)
        got.add(("".join(r[0] for r in rows), "".join(r[1] for r in rows)))
    assert got == expected


def test_maximal_sets_single_collision_domain():
    links = ["a", "b", "c"]
    net = make_network(
        links,
        {l: [[m] for m in links if m != l] for l in links},
        {(l, m): 0 for l in links for m in links if m != l},
    )
    validate(net)
    w = build_window(net, 1)
    assert w.maximal_independent_sets() == [0b001, 0b010, 0b100]


def brute_maximal(window):
    sets = list(window.independent_sets())
    as_set = set(sets)
    out = []
    for a in sets:
        if not any(b != a and b & a == a for b in as_set):
            # a is maximal iff no single-bit extension stays independent
            if not any(
                window.is_independent(a | (1 << p))
                for p in range(window.nbits) if not a >> p & 1
            ):
                out.append(a)
    return sorted(out)


def test_maximal_equals_filtered_bruteforce_line51(line51):
    w = build_window(line51, 1)
    assert w.maximal_independent_sets() == brute_maximal(w)


@pytest.mark.parametrize("seed", range(12))
def test_maximal_equals_filtered_bruteforce_random(seed):
    rng = random.Random(1000 + seed)
    net = random_network(rng)
    T = rng.choice([1, 2])
    w = build_window(net, T)
    if w.nbits > 12:
        pytest.skip("window too large for the brute-force oracle")
    assert w.maximal_independent_sets() == brute_maximal(w)


@pytest.mark.parametrize("seed", range(8))
def test_downward_closure(seed):
    rng = random.Random(2000 + seed)
    net = random_network(rng)
    w = build_window(net, rng.choice([1, 2]))
    sets = list(w.independent_sets()) if w.nbits <= 12 else []
    for bits in rng.sample(sets, min(20, len(sets))):
        sub = bits
        while sub:
            sub = rng.randint(0, bits) & bits
            assert w.is_independent(sub)
            if sub == 0:
                break


@pytest.mark.parametrize("seed", range(8))
def test_window_monotone_zero_padding(seed):
    # An independent T-window assignment stays independent when placed in
    # the first T columns of a longer window.
    rng = random.Random(3000 + seed)
    net = random_network(rng)
    T = rng.choice([1, 2])
    w = build_window(net, T)
    if w.nbits > 12:
        pytest.skip("window too large")
    bigger = build_window(net, T + rng.choice([1, 2]))
    L = len(net.links)
    for bits in w.independent_sets():
        rows = block_to_rows(bits, L, T)
        padded = block_from_rows([r + "0" * (bigger.T - T) for r in rows], bigger.T)
        assert bigger.is_independent(padded)


def test_maximality_certificate_every_flip_violates(line41, hyper_n4):
    for net, T in ((line41, 2), (hyper_n4, 2)):
        w = build_window(net, T)
        for bits in w.maximal_independent_sets():
            assert w.is_independent(bits)
            for p in range(w.nbits):
                if not bits >> p & 1:
                    assert not w.is_independent(bits | (1 << p))


def _ref_maximal_hyper(window):
    """The unpruned walk: every independent set, each leaf certified maximal
    by checking that adding any left-out vertex completes one of its masks."""
    n = window.nbits
    by_member = [[] for _ in range(n)]
    for m in window.masks:
        mm = m
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            by_member[v].append(m)
    out = []

    def certify(bits):
        for v in range(n):
            if bits >> v & 1:
                continue
            flipped = bits | (1 << v)
            if all(flipped & m != m for m in by_member[v]):
                return False
        return True

    def walk(p, cur):
        if p < 0:
            if certify(cur):
                out.append(cur)
            return
        walk(p - 1, cur)
        nxt = cur | (1 << p)
        if all(nxt & m != m for m in by_member[p]):
            walk(p - 1, nxt)

    walk(n - 1, 0)
    return sorted(out)


# Doubled (2T) windows, as ``build_maximal`` takes them; the random seeds
# keep only hypergraph profiles (58 of the 200 draws), all under 20 bits.
# On chain5 T2 the unpruned walk visits 529,984 leaves for 81 results.
PRUNED_WALK_CASES = (
    [(f"hyper_n4-T{T}", hyper_chain(4), 2 * T) for T in (1, 2)]
    + [(f"chain5-T{T}", hyper_chain(5), 2 * T) for T in (1, 2)]
    + [
        (f"random{seed}-T{T}", net, 2 * T)
        for seed in range(7000, 7200)
        for net in [random_network(random.Random(seed))]
        if not is_binary(net)
        for T in (1, 2)
    ]
)


def test_pruned_hyper_walk_matches_unpruned_walk():
    assert len(PRUNED_WALK_CASES) == 120
    for name, net, T in PRUNED_WALK_CASES:
        w = build_window(net, T)
        assert w.nbits <= 20, name
        assert sorted(w._maximal_hyper()) == _ref_maximal_hyper(w), name



def _ref_maximal_binary(window):
    """Pivoted Bron-Kerbosch on the complement graph with every usable
    vertex in P at the start, as before free vertices went straight to R."""
    n = window.nbits
    universe = (1 << n) - 1
    adj = [0] * n
    for m in window.masks:
        if m & (m - 1) == 0:
            universe &= ~m
            continue
        lo = (m & -m).bit_length() - 1
        hi = m.bit_length() - 1
        adj[lo] |= 1 << hi
        adj[hi] |= 1 << lo
    comp = [
        (universe & ~(adj[v] | (1 << v))) if universe >> v & 1 else 0
        for v in range(n)
    ]
    out = []
    stack = [(0, universe, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot, best = -1, -1
        pool = p | x
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            score = (p & comp[u]).bit_count()
            if score > best:
                best, pivot = score, u
        cand = p & ~comp[pivot]
        while cand:
            v = cand.bit_length() - 1
            vbit = 1 << v
            cand ^= vbit
            stack.append((r | vbit, p & ~cand & comp[v], (x | cand) & comp[v]))
    return sorted(out)


def _random_binary_masks(rng, n):
    """Pair conflicts over n bits, a few self-conflicting bits, and some
    bits left free or conflicting only with a self-conflicting one."""
    masks = set()
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        masks.add(1 << a | 1 << b)
    for _ in range(rng.randint(0, 2)):
        masks.add(1 << rng.randrange(n))
    return tuple(masks)


def test_free_vertices_start_in_every_maximal_set():
    # Binary windows from random networks at T 1-3 and doubled, and random
    # conflict graphs with free vertices, against the search that branched
    # on every vertex.
    windows = [
        w
        for seed in range(300)
        for net in [random_network(random.Random(seed))]
        if is_binary(net)
        for T in (1, 2, 3, 4, 6)
        for w in [build_window(net, T)]
        if w.nbits <= 22
    ]
    rng = random.Random(1212)
    for _ in range(300):
        n = rng.randint(2, 20)
        net = make_network([f"l{i}" for i in range(n)], {}, {})
        windows.append(WindowGraph(net, 1, _random_binary_masks(rng, n)))
    free = make_network(["a", "b", "c"], {"a": [["b"]]}, {("a", "b"): 1})
    windows += [build_window(free, T) for T in (1, 2, 5, 8)]
    assert len(windows) > 1000
    for w in windows:
        assert w.maximal_independent_sets() == _ref_maximal_binary(w), w.masks
    # One free link over 1,200 bits: a single level, not one per bit.
    lone = build_window(make_network(["a"], {}, {}), 1200)
    assert lone.maximal_independent_sets() == [(1 << 1200) - 1]


def test_check_closed_takes_exactly_the_closed_paths():
    for path in [(0, 0), [5, 3, 5], (7,) * 4]:
        assert check_closed("path", path) is path
    for path in [(), [], (5,), (1, 2), [1, 2, 3]]:
        with pytest.raises(ValueError, match="^witness is not a closed block path$"):
            check_closed("witness", path)


def test_check_block_takes_exactly_the_blocks_of_a_window():
    for L, T in ((1, 1), (3, 1), (2, 3)):
        check_block(0, L, T)
        check_block((1 << L * T) - 1, L, T)
        for bad in (-1, 1 << L * T, (1 << L * T + 3) | 1):
            with pytest.raises(ValueError, match=f"is not a {L} x {T} block"):
                check_block(bad, L, T)


@pytest.mark.parametrize("bits", [True, 1.0, "1"], ids=repr)
def test_a_block_that_is_not_an_int_is_rejected(bits):
    # A bool would pass as 1; a float or a string would fail inside the bit test.
    with pytest.raises(ValueError, match="is not a 1 x 1 block"):
        check_block(bits, 1, 1)
    with pytest.raises(ValueError, match="is not a 1 x 1 block"):
        closed_path_rate((bits, bits), 1, 1)


def test_block_arguments_outside_the_window_are_rejected():
    net = line_network(3, 1)
    calls = [
        lambda b: is_vertex(net, b, 1),
        lambda b: has_edge(net, 0, b, 1),
        lambda b: has_edge(net, b, 0, 1),
        lambda b: closed_path_rate((0, b, 0), 1, 3),
        lambda b: schedule_from_closed_path((0, b, 0), 1, 3),
    ]
    for call in calls:
        call(0b100)  # link 0's bit, the top one of the window
        for bad in (-1, 0b1000):
            with pytest.raises(ValueError, match="is not a 3 x 1 block"):
                call(bad)
