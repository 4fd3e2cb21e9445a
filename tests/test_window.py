import random

import pytest

from delaysched import (
    CapExceededError,
    InvalidNetworkError,
    build_window,
    line_network,
    make_network,
    validate,
)
from delaysched.window import (
    bit_position,
    block_from_rows,
    block_to_rows,
    join_pair,
    split_pair,
)

from delaysched.network import is_binary

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

