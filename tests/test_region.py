import random
from fractions import Fraction
from math import lcm

import pytest

from delaysched import (
    algorithm_a,
    apply_vertex_assignment,
    build,
    closed_path_rate,
    framed_region,
    gcd_reduce,
    is_achievable,
    johnson_cycles,
    line_network,
    make_network,
    pareto_filter,
    rate_numerators,
    rate_vector,
    region_from_cycles,
    region_regime,
    sandwich_check,
    schedule_from_closed_path,
    span_slots,
    validate,
    verify,
    window_symmetric_rate,
)
from delaysched import exactlp
from delaysched.exactlp import dominating_combination, max_symmetric_scale, simplex_min
from delaysched.network import character, is_binary
from delaysched.region import (
    RegionDescription,
    achievability_certificate,
    region_from_json,
    region_to_json,
)
from delaysched.window import build_window, link_row_masks

from conftest import random_network, schedule_region, v

F = Fraction

R1 = (F(0), F(1), F(0), F(0))
R2 = (F(0), F(0), F(1), F(0))
R3 = (F(1), F(0), F(0), F(1))
R4 = (F(1, 2),) * 4


@pytest.fixture
def cycle_region(line41):
    res = algorithm_a(line41, 1, 4)
    assert res.complete
    return region_from_cycles(
        line41, res.cycles, 1, {"algorithm": "incremental", "k_max": 4}
    )


def test_rate_of_closed_path_reference():
    assert closed_path_rate((0, 0), 1, 4) == (F(0),) * 4
    assert closed_path_rate((v(5), v(8), v(7), v(6), v(5)), 1, 4) == R4
    assert closed_path_rate((v(2), v(2)), 1, 4) == R1
    with pytest.raises(ValueError, match="path is not a closed block path"):
        closed_path_rate((v(2), v(3)), 1, 4)


def test_a_region_from_the_wrong_window_length_is_refused(line41):
    # T 2 cycles read at T 1 would give the generator (0, 0, 1, 1): l3 and
    # l4 always on, which collide, with witness (3, 131, 3), not a path of
    # 4 x 1 blocks.
    cycles = algorithm_a(line41, 2, 3).cycles
    for read in (lambda: region_from_cycles(line41, cycles, 1),
                 lambda: pareto_filter(cycles, 1, 4),
                 lambda: rate_numerators(cycles, 1, 4)):
        with pytest.raises(ValueError, match=r"^block \d+ is not a 4 x 1 block$"):
            read()


def test_rate_normalized_per_slot():
    # Two-column blocks divide by k*T, keeping components in [0, 1].
    block = int("10" "01", 2)  # link 0 active at t=0, link 1 at t=1
    assert closed_path_rate((block, block), 2, 2) == (F(1, 2), F(1, 2))


def test_region_generators_reference(cycle_region):
    assert set(cycle_region.generators) == {R1, R2, R3, R4}
    assert cycle_region.provenance["regime"] == "exact"


def test_region_from_single_zero_cycle(line41):
    reg = region_from_cycles(line41, [(0, 0)], 1)
    assert reg.generators == ((F(0),) * 4,)


def test_region_drops_dominated_rates(line41):
    reg = region_from_cycles(line41, [(0, 0), (v(5), v(5)), (v(1), v(1))], 1)
    assert reg.generators == (R3,)


def test_is_achievable_reference(cycle_region):
    assert is_achievable(cycle_region, R4)
    assert is_achievable(cycle_region, R3)
    assert not is_achievable(cycle_region, (F(3, 5),) * 4)


def test_achievability_is_downward_closed(cycle_region):
    rng = random.Random(11)
    for _ in range(10):
        weights = [F(rng.randint(0, 3)) for _ in cycle_region.generators]
        total = sum(weights) or F(1)
        weights = [w / total for w in weights]
        point = tuple(
            sum(w * g[d] for w, g in zip(weights, cycle_region.generators))
            for d in range(4)
        )
        assert is_achievable(cycle_region, point)
        smaller = tuple(x * F(rng.randint(0, 4), 4) for x in point)
        assert is_achievable(cycle_region, smaller)


def test_convexity_of_membership(cycle_region):
    mid = tuple((a + b) / 2 for a, b in zip(R3, R4))
    assert is_achievable(cycle_region, mid)


def _membership_queries(region, rng):
    """Zero; each generator, and 1/den above and below it in one coordinate;
    the centroid, and with one coordinate at or just above its maximum;
    random rates."""
    gens = region.generators
    n = len(region.links)
    step = F(1, lcm(*(x.denominator for g in gens for x in g)))
    queries = [(F(0),) * n]
    for g in gens:
        queries.append(g)
        queries += [g[:i] + (g[i] + d,) + g[i + 1:] for i in range(n) for d in (step, -step)]
    centroid = tuple(sum(col) / len(gens) for col in zip(*gens))
    queries.append(centroid)
    for i, top in enumerate(map(max, zip(*gens))):
        queries += [centroid[:i] + (x,) + centroid[i + 1:] for x in (top, top + step)]
    queries += [tuple(F(rng.randint(0, 8), 8) for _ in range(n)) for _ in range(20)]
    return queries


def test_is_achievable_matches_the_certificate():
    # Regions of corpus-style draws (exact regime, at most 48 vertices) and
    # of the ladder's rungs.
    rng = random.Random(8500)
    regions = [
        region_from_cycles(line_network(L, 1), algorithm_a(line_network(L, 1), T, k).cycles, T)
        for L, T, k in [(4, 1, 4), (5, 1, 4), (6, 1, 3), (4, 2, 3), (5, 2, 3)]
    ]
    while len(regions) < 45:
        T = rng.choice([1, 2])
        net = random_network(rng, regime_T=T)
        if sum(1 for _ in build_window(net, T).independent_sets()) <= 48:
            regions.append(region_from_cycles(net, algorithm_a(net, T, 3).cycles, T))
    # The certificate skips the LP on trivial queries: its answer must be
    # the LP's, and its weights a convex combination dominating the query.
    answers = set()
    for region in regions:
        gens = region.generators
        for q in _membership_queries(region, rng):
            weights = achievability_certificate(region, q)
            want = dominating_combination(gens, q) is not None
            assert (weights is not None) == is_achievable(region, q) == want, (gens, q)
            if weights is not None:
                assert min(weights) >= 0 and sum(weights) == 1
                assert all(sum(w * g[d] for w, g in zip(weights, gens)) >= x
                           for d, x in enumerate(q))
            answers.add(want)
    assert answers == {True, False}


def test_is_achievable_answers_trivial_queries_without_an_lp(monkeypatch, cycle_region):
    solves = []

    def counting(*args):
        solves.append(args)
        return simplex_min(*args)

    monkeypatch.setattr(exactlp, "simplex_min", counting)
    assert is_achievable(cycle_region, (F(0),) * 4)
    assert is_achievable(cycle_region, ("1/2", F(1, 2), F(1, 3), 0))
    assert not is_achievable(cycle_region, (F(0), F(0), F(0), F(11, 10)))
    assert not is_achievable(cycle_region, ("0", "0", "9/8", "0"))
    # The certificate answers the same two cases: unit weight on the first
    # covering generator (the generators are R2, R1, R4, R3), or None.
    assert achievability_certificate(cycle_region, (F(0),) * 4) == [1, 0, 0, 0]
    assert achievability_certificate(cycle_region, (F(1, 2), 0, 0, F(1, 2))) == [0, 0, 1, 0]
    assert achievability_certificate(cycle_region, (F(0), F(0), F(0), F(11, 10))) is None
    assert solves == []
    inside = (F(3, 4), F(1, 4), F(1, 4), F(3, 4))  # between R3 and R4, under neither
    assert is_achievable(cycle_region, inside)
    assert not is_achievable(cycle_region, ("3/5",) * 4)
    assert len(solves) == 2
    empty = RegionDescription(("a", "b"), 1, (), (), {})
    assert not is_achievable(empty, (F(0), F(0)))
    assert achievability_certificate(empty, (F(0), F(0))) is None
    for region, rate in [(cycle_region, (F(0),) * 3), (empty, (F(0),))]:
        with pytest.raises(ValueError, match="rate dimension does not match region links"):
            is_achievable(region, rate)


def test_membership_rejects_a_float_rate_entry():
    # 0.1 is read at its binary value, just above 1/10, so it would answer no.
    region = RegionDescription(("a",), 1, ((F(1, 10),),), (None,), {})
    assert is_achievable(region, ("1/10",)) and is_achievable(region, (F(1, 10),))
    assert is_achievable(region, (0,))
    for rate in [(0.1,), (0.0,)]:
        with pytest.raises(TypeError, match="rate entries must be int, Fraction or 'p/q'"):
            is_achievable(region, rate)
        with pytest.raises(TypeError, match="rate entries must be int, Fraction or 'p/q'"):
            achievability_certificate(region, rate)


def test_framed_region_reference(line41):
    reg = framed_region(line41)
    assert set(reg.generators) == {R1, R2, R3}
    for gen, wit in zip(reg.generators, reg.witnesses):
        s = schedule_from_closed_path(wit, 1, 4)
        assert verify(line41, s)
        assert rate_vector(line41, s) == gen


def test_framed_region_free_and_single_domain():
    free = make_network(["a", "b"], {}, {})
    assert framed_region(free).generators == ((F(1), F(1)),)
    links = ["a", "b", "c"]
    clique = make_network(
        links,
        {l: [[m] for m in links if m != l] for l in links},
        {(l, m): 0 for l in links for m in links if m != l},
    )
    validate(clique)
    assert set(framed_region(clique).generators) == {
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
    }


def test_sandwich_reference(line41, cycle_region):
    framed = framed_region(line41)
    assert sandwich_check(framed, cycle_region)
    assert sandwich_check(cycle_region, cycle_region)
    assert not sandwich_check(cycle_region, framed)


@pytest.mark.parametrize(
    "T,expected",
    [(1, F(1, 4)), (2, F(1, 3)), (3, F(3, 8)), (4, F(2, 5)), (5, F(5, 12))],
)
def test_window_symmetric_rate_reference(line41, T, expected):
    assert window_symmetric_rate(line41, T) == expected


def _ref_window_symmetric_rate(network, T):
    """The count vectors of every independent set of the T-window, less
    those another one strictly dominates, by a quadratic scan."""
    window = build_window(network, T)
    row_masks = link_row_masks(len(network.links), T)
    sums = {
        tuple((bits & m).bit_count() for m in row_masks)
        for bits in window.independent_sets()
    }
    front = [
        s for s in sums
        if not any(s2 != s and all(a >= b for a, b in zip(s2, s)) for s2 in sums)
    ]
    vectors = [tuple(F(x, T) for x in s) for s in sorted(front)]
    return max_symmetric_scale(vectors, F(T, T + character(network)))


# Seeds 7000-7059 at T 1-3, kept under 13 bits: 126 binary and 54
# hypergraph windows.
RANDOM_RATE_CASES = [
    (net, T)
    for seed in range(7000, 7060)
    for net in [random_network(random.Random(seed))]
    for T in (1, 2, 3)
    if len(net.links) * T <= 12
]


def test_window_rate_from_maximal_sets_matches_all_sets(line41):
    cases = [(line41, T) for T in range(1, 7)] + [(line_network(5, 1), 4)]
    kinds = [is_binary(net) for net, _ in RANDOM_RATE_CASES]
    assert (kinds.count(True), kinds.count(False)) == (126, 54)
    for net, T in cases + RANDOM_RATE_CASES:
        got = window_symmetric_rate(net, T)
        assert isinstance(got, F)
        assert got == _ref_window_symmetric_rate(net, T), (net.links, T)
    assert window_symmetric_rate(line41, 6) == F(3, 7)


def test_window_symmetric_rate_free_link():
    net = make_network(["a"], {}, {})
    for T in (1, 2, 3):
        assert window_symmetric_rate(net, T) == 1


def test_window_rate_monotone_and_bounded(line41):
    values = [window_symmetric_rate(line41, T) for T in range(1, 6)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(x <= F(1, 2) for x in values)


def test_generator_witnesses_achieve_their_rates(line41, hyper_n4):
    for net, T in ((line41, 1), (hyper_n4, 2)):
        assert region_regime(net, T) == "exact"
        res = algorithm_a(net, T, 3)
        reg = region_from_cycles(net, res.cycles, T)
        for gen, wit in zip(reg.generators, reg.witnesses):
            s = schedule_from_closed_path(wit, T, len(net.links))
            assert verify(net, s)
            assert rate_vector(net, s) == gen


def test_outer_bound_regime_is_flagged(hyper_n4):
    assert region_regime(hyper_n4, 1) == "outer-bound"
    res = algorithm_a(hyper_n4, 1, 2)
    reg = region_from_cycles(hyper_n4, res.cycles, 1)
    assert reg.provenance["regime"] == "outer-bound"


def test_shift_invariance_of_region(line41):
    # A vertex assignment preserving the character leaves the cycle-hull
    # generators unchanged.
    shifted = apply_vertex_assignment(line41, {"l1": 0, "l2": 0, "l3": 0, "l4": 1})
    from delaysched import character

    assert character(shifted) == character(line41)
    gens = []
    for net in (line41, shifted):
        res = algorithm_a(net, 1, 4)
        assert res.complete
        gens.append(set(region_from_cycles(net, res.cycles, 1).generators))
    assert gens[0] == gens[1]


def test_gcd_reduction_invariance_small():
    # Two links, one conflict of delay 2; dividing by the GCD must not
    # change the region (window lengths chosen per regime).  Here the
    # region is the triangle below x + y = 1 in both forms.
    net = make_network(["a", "b"], {"a": [["b"]]}, {("a", "b"): 2})
    validate(net)
    reduced, g = gcd_reduce(net)
    assert g == 2
    expected = {(F(1), F(0)), (F(0), F(1))}
    for n, T in ((net, 2), (reduced, 1)):
        assert region_regime(n, T) == "exact"
        res = algorithm_a(n, T, 2)
        assert res.complete
        assert set(region_from_cycles(n, res.cycles, T).generators) == expected


def test_region_monotone_in_search_depth(line41):
    # Deeper searches only enlarge the region: every generator found at
    # depth k stays achievable at depth k + 1.
    regions = []
    for k in (1, 2, 3, 4):
        res = algorithm_a(line41, 1, k)
        regions.append(region_from_cycles(line41, res.cycles, 1))
    for small, big in zip(regions, regions[1:]):
        for gen in small.generators:
            assert is_achievable(big, gen)


def test_region_json_roundtrip(cycle_region):
    doc = region_to_json(cycle_region)
    back = region_from_json(doc)
    assert back.generators == cycle_region.generators
    assert back.witnesses == cycle_region.witnesses
    assert back.links == cycle_region.links


@pytest.mark.parametrize("L, T, k", [(4, 1, 4), (5, 1, 4), (6, 1, 3), (4, 2, 3), (5, 2, 3)])
def test_region_json_roundtrip_checks_every_witness_rate(L, T, k):
    # Loading checks each witness's rate against its generator's; the
    # regions the search and the frame build write all pass that check.
    net = line_network(L, 1)
    for region in (region_from_cycles(net, algorithm_a(net, T, k).cycles, T),
                   framed_region(net)):
        back = region_from_json(region_to_json(region))
        assert back.generators == region.generators
        assert back.witnesses == region.witnesses


@pytest.mark.parametrize("doc", [
    {"links": "ab", "generators": [{"rate": ["1/2", "1/2"]}]},
    {"links": ["a", "b"], "generators": {"rate": ["1/2", "1/2"]}},
    {"links": ["a", "b"], "generators": [{"rate": "12"}]},
    {"links": ["a", "b"], "generators": [{"rate": ["1", "1"], "witness": "10"}]},
    {"links": ["a", "b"], "generators": [{"rate": ["1", "1"], "witness": ["10", "01"]}]},
], ids=["links", "generators", "rate", "witness", "witness-block"])
def test_region_from_json_rejects_a_string_where_a_list_belongs(doc):
    with pytest.raises(ValueError, match="must be a list"):
        region_from_json({"T": 1, **doc})


def test_region_from_json_takes_a_generator_without_a_witness():
    doc = {"links": ["a", "b"], "T": 1, "generators": [
        {"rate": ["1/2", "1/2"]}, {"rate": ["1", "0"], "witness": [["1", "0"], ["1", "0"]]}]}
    region = region_from_json(doc)
    assert region.generators == ((F(1, 2), F(1, 2)), (F(1), F(0)))
    assert region.witnesses == (None, (0b10, 0b10))


def test_region_from_json_rejects_a_non_binary_witness_row():
    doc = {"links": ["a", "b"], "T": 1,
           "generators": [{"rate": ["1", "0"], "witness": [["1", "2"]]}]}
    with pytest.raises(ValueError, match="row 1 has non-binary character '2'"):
        region_from_json(doc)


@pytest.mark.parametrize("generator, message", [
    ({"rate": ["-1/2", "3/2"]}, r"generator rate \['-1/2', '3/2'\] is not in \[0, 1\]"),
    ({"rate": ["1", "0"], "witness": [["1", "0"]]}, "witness is not a closed block path"),
    ({"rate": ["1/2", "1/2"], "witness": [["1", "0"], ["0", "1"]]},
     "witness is not a closed block path"),
    ({"rate": ["1", "0"], "witness": [["0", "1"], ["0", "1"]]},
     r"witness rate \['0/1', '1/1'\] is not its generator's \['1/1', '0/1'\]"),
], ids=["rate-outside-0-1", "witness-one-block", "witness-open", "witness-rate-not-the-rate"])
def test_region_from_json_rejects_an_impossible_generator(generator, message):
    with pytest.raises(ValueError, match=message):
        region_from_json({"links": ["a", "b"], "T": 1, "generators": [generator]})


@pytest.mark.parametrize("witnesses", [(), (None, None)], ids=["fewer", "more"])
def test_region_description_needs_one_witness_slot_per_generator(witnesses):
    with pytest.raises(ValueError, match="one witness slot per generator required"):
        RegionDescription(("l1",), 1, ((F(1),),), witnesses, {})


def _tiny_draw(seed: int, regime_T: int | None = None):
    """The first draw of at most 3 links, so that |L|·P stays at most 12."""
    rng = random.Random(seed)
    net = random_network(rng, regime_T=regime_T)
    while len(net.links) > 3:
        net = random_network(rng, regime_T=regime_T)
    return net


def _cycle_region(net, T: int, max_len: int) -> RegionDescription:
    return region_from_cycles(net, johnson_cycles(build(net, T), max_len=max_len).cycles, T)


def test_schedule_region_lies_between_cycle_regions_in_the_exact_regime():
    # cycles(k) ⊆ schedules(k·T) ⊆ cycles(k·T): a cycle is a schedule, and a
    # schedule of period p is a closed walk of length p.  At T = 1 both are
    # equalities; at T = 2 a period-3 schedule can beat every cycle of length 2.
    strict = 0
    for T, k, seeds in ((1, 4, range(4)), (2, 2, (7, 8, 9))):
        for seed in seeds:
            net = _tiny_draw(seed, regime_T=T)
            assert region_regime(net, T) == "exact"
            schedules = schedule_region(net, k * T)
            inner, outer = _cycle_region(net, T, k), _cycle_region(net, T, k * T)
            assert sandwich_check(inner, schedules) and sandwich_check(schedules, outer)
            strict += not sandwich_check(schedules, inner) or not sandwich_check(outer, schedules)
    assert strict


def test_schedule_region_lies_inside_the_cycle_region_below_the_regime():
    # Below the regime the window misses some collisions: the cycle region
    # is only an outer bound, and on some draws a strictly larger one.
    strict = 0
    for seed in range(8):
        net = _tiny_draw(seed)
        assert region_regime(net, 1) == "outer-bound"
        schedules, cycles = schedule_region(net, 4), _cycle_region(net, 1, 4)
        assert sandwich_check(schedules, cycles)
        strict += not sandwich_check(cycles, schedules)
    assert strict


def test_a_window_as_wide_as_the_widest_collision_span_is_exact():
    # b collides with {a, c} and c with {b, d}, at +1 and +2: D* = 2 and S = 2.
    # T 2 needs no 2 D* = 4 (a 32-bit window, past the cap): every witness
    # of A's region at T 2 is a collision-free schedule of its rate.
    net = make_network(["a", "b", "c", "d"], {"b": [["a", "c"]], "c": [["b", "d"]]},
                       {("b", "a"): 1, ("b", "c"): 2, ("c", "b"): 1, ("c", "d"): 2})
    assert region_regime(net, 1) == "outer-bound"
    assert region_regime(net, 2) == "exact"
    reg = region_from_cycles(net, algorithm_a(net, 2, 2).cycles, 2)
    assert reg.provenance["regime"] == "exact"
    for gen, wit in zip(reg.generators, reg.witnesses):
        s = schedule_from_closed_path(wit, 2, 4)
        assert verify(net, s) and rate_vector(net, s) == gen


def test_schedule_region_lies_between_cycle_regions_at_the_span_of_a_general_draw():
    # The first six general draws with 0 < S < 2 D* and S <= 2 are exact at
    # T = S, below 2 D*: cycles(k) ⊆ schedules(k·S) ⊆ cycles(k·S), |L|·k·S <= 12.
    spans = []
    for seed in range(40):
        net = _tiny_draw(seed)
        S = span_slots(net)
        if is_binary(net) or not 0 < S <= 2 or S >= 2 * character(net):
            continue
        assert region_regime(net, S) == "exact"
        k = 12 // (len(net.links) * S)
        schedules = schedule_region(net, k * S)
        inner, outer = _cycle_region(net, S, k), _cycle_region(net, S, k * S)
        assert sandwich_check(inner, schedules) and sandwich_check(schedules, outer)
        spans.append(S)
        if len(spans) == 6:
            break
    assert sorted(set(spans)) == [1, 2] and len(spans) == 6


def test_sandwich_check_rejects_regions_on_different_links():
    inner = RegionDescription(("a",), 1, ((F(1),),), (None,), {})
    outer = RegionDescription(("b",), 1, ((F(1),),), (None,), {})
    with pytest.raises(ValueError, match="regions live on different link sets"):
        sandwich_check(inner, outer)


@pytest.mark.parametrize("T", [0, -2, 1.9, 2.0, True, "2", None], ids=repr)
def test_region_description_rejects_a_bad_T(T):
    with pytest.raises(ValueError, match="bad window length|window length must be >= 1"):
        RegionDescription(("l1",), T, ((F(1),),), (None,), {})


@pytest.mark.parametrize("T", [0, 1.0, True, "1", None], ids=repr)
def test_region_from_json_checks_T_before_reading_a_witness(T):
    doc = {"links": ["a"], "T": T,
           "generators": [{"rate": ["1"], "witness": [["1"], ["1"]]}]}
    with pytest.raises(ValueError, match="bad window length|window length must be >= 1"):
        region_from_json(doc)


def test_region_description_rejects_duplicate_link_names():
    with pytest.raises(ValueError, match="duplicate link names"):
        RegionDescription(("l1", "l1"), 1, ((F(1), F(0)),), (None,), {})
    doc = {"links": ["l1", "l1"], "T": 1, "generators": [{"rate": ["1", "0"]}]}
    with pytest.raises(ValueError, match="duplicate link names"):
        region_from_json(doc)
