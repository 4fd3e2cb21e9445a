import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from delaysched import (
    InvalidNetworkError,
    PeriodicSchedule,
    active_slots,
    build_framed_schedule,
    build_window,
    character,
    is_binary,
    is_collision_free_at,
    line_network,
    make_network,
    rate_vector,
    schedule_from_closed_path,
    schedule_from_json,
    schedule_is_path,
    schedule_to_json,
    validate,
    verify,
)
from delaysched import schedgraph as schedgraph_mod
from delaysched import schedule as schedule_mod
from delaysched.window import block_from_rows, block_to_rows
from conftest import random_network, v

F = Fraction


def s_prime_n4():
    """Period-3 schedule around the three-column collision witness."""
    return PeriodicSchedule(3, ({0}, {0, 1}, {1, 2}, {2}))


def test_empty_collision_set_is_always_free(line41):
    s = PeriodicSchedule(2, ({0, 1}, set(), set(), {0, 1}))
    for t in range(4):
        assert is_collision_free_at(line41, s, "l4", t)


def test_hyper_collision_at_reference_slot(hyper_n4):
    s = s_prime_n4()
    assert not is_collision_free_at(hyper_n4, s, "l2", 1)
    # The pair straddles the period wrap for the other active slots.
    assert is_collision_free_at(hyper_n4, s, "l2", 0)
    assert not is_collision_free_at(hyper_n4, s, "l3", 1)
    assert is_collision_free_at(hyper_n4, s, "l3", 2)


def test_collision_check_rejects_a_link_the_network_lacks():
    s = PeriodicSchedule(1, ({0}, set(), {0}))
    with pytest.raises(InvalidNetworkError, match="unknown link 'zz'"):
        is_collision_free_at(line_network(3, 1), s, "zz", 0)


def test_collision_check_wraps_modulo_period(line41):
    s = PeriodicSchedule(2, ({0}, {1}, {1}, {0}))
    # (l1, 0): both collision sets are checked at their offsets mod 2,
    # and negative slots read the same wrapped columns.
    assert not is_collision_free_at(line41, s, "l1", 0)
    assert is_collision_free_at(line41, s, "l1", -2) == is_collision_free_at(
        line41, s, "l1", 0
    )
    assert is_collision_free_at(line41, s, "l2", -1) == is_collision_free_at(
        line41, s, "l2", 1
    )


def test_verify_reference_cases(line41, hyper_n4):
    assert verify(line41, PeriodicSchedule(3, (set(),) * 4))
    assert not verify(hyper_n4, s_prime_n4())


def test_rate_vector_zero_and_colliding(hyper_n4):
    zero = PeriodicSchedule(2, (set(),) * 4)
    assert rate_vector(hyper_n4, zero) == (F(0),) * 4
    # One of each middle link's two active slots collides.
    assert rate_vector(hyper_n4, s_prime_n4()) == (F(1, 3),) * 4


def test_rate_vector_counts_only_collision_free_slots(line41):
    s = PeriodicSchedule(2, ({0}, {1}, {1}, {0}))
    # (l1,0) collides via l2 one slot later; (l3,1) collides via l4 at wrap.
    assert rate_vector(line41, s) == (F(0), F(1, 2), F(0), F(1, 2))


def test_rate_vector_of_half_rate_cycle_schedule(line41):
    path = (v(5), v(8), v(7), v(6), v(5))
    s = schedule_from_closed_path(path, 1, 4)
    assert verify(line41, s)
    assert rate_vector(line41, s) == (F(1, 2),) * 4
    # Collision-free schedules earn every active slot.
    assert rate_vector(line41, s) == tuple(
        F(len(row), s.period) for row in s.rows
    )


def test_framed_schedule_reference(line41):
    s = build_framed_schedule(line41, [({"l1", "l4"}, 1)], 3)
    assert s.period == 3
    assert verify(line41, s)
    assert rate_vector(line41, s) == (F(2, 3), F(0), F(0), F(2, 3))


def test_framed_schedule_empty_frame(line41):
    s = build_framed_schedule(line41, [(set(), 1)], 3)
    assert s.period == 3
    assert s.rows == (frozenset(),) * 4


def test_framed_schedule_rejects_dependent_set(line41):
    with pytest.raises(ValueError, match="not independent"):
        build_framed_schedule(line41, [({"l1", "l2"}, 1)], 3)


def test_framed_schedule_rejects_short_frame(line41, hyper_n4):
    with pytest.raises(ValueError, match="below minimum"):
        build_framed_schedule(line41, [({"l1"}, 1)], 2)
    # The general profile needs 3 D* + 1 rather than 2 D* + 1.
    with pytest.raises(ValueError, match="below minimum"):
        build_framed_schedule(hyper_n4, [({"l1"}, 1)], 3)


def test_framed_schedule_hyper_profile(hyper_n4):
    s = build_framed_schedule(hyper_n4, [({"l1", "l2", "l4"}, 1)], 4)
    assert verify(hyper_n4, s)
    assert rate_vector(hyper_n4, s) == (F(3, 4), F(3, 4), F(0), F(3, 4))


def test_framed_rate_factor(line41):
    # rate(l) = (1 - D*/T_F) * (fraction of frames containing l)
    frames = [({"l1", "l4"}, 2), ({"l2"}, 1), (set(), 1)]
    for T_F in (3, 5, 8):
        s = build_framed_schedule(line41, frames, T_F)
        assert verify(line41, s)
        factor = F(T_F - 1, T_F)
        assert rate_vector(line41, s) == (
            factor * F(2, 4), factor * F(1, 4), F(0), factor * F(2, 4),
        )


def test_schedule_from_closed_path_shapes():
    zero = schedule_from_closed_path((0, 0), 2, 3)
    assert zero.period == 2 and zero.rows == (frozenset(),) * 3
    const = schedule_from_closed_path((v(6), v(6)), 1, 4)
    assert const.period == 1 and const.rows == ({0}, {0}, set(), set())
    with pytest.raises(ValueError, match="path is not a closed block path"):
        schedule_from_closed_path((v(5), v(6)), 1, 4)
    for short in ((), (v(5),)):
        with pytest.raises(ValueError, match="path is not a closed block path"):
            schedule_from_closed_path(short, 1, 4)


def _text_schedule(path, T, num_links):
    """Reference: each block's text rows, concatenated per link, then read as slots."""
    slabs = [block_to_rows(block, num_links, T) for block in path[:-1]]
    rows = ["".join(slab[l] for slab in slabs) for l in range(num_links)]
    return PeriodicSchedule(len(slabs) * T, [{t for t, c in enumerate(r) if c == "1"}
                                             for r in rows])


def _text_slab(s, T, k, num_links):
    """Reference: columns kT .. (k+1)T - 1 as text rows, then packed."""
    return block_from_rows(
        ["".join(str(s.active(l, k * T + j)) for j in range(T)) for l in range(num_links)],
        T,
    )


def test_closed_path_schedules_and_slabs_match_the_text_form():
    rng = random.Random(2800)
    for _ in range(300):
        L, T = rng.randint(1, 5), rng.randint(1, 3)
        blocks = [rng.getrandbits(L * T) for _ in range(rng.randint(1, 4))]
        path = (*blocks, blocks[0])
        s = schedule_from_closed_path(path, T, L)
        assert s == _text_schedule(path, T, L)
        for k in range(len(blocks) + 1):
            assert s.slab(T, k) == _text_slab(s, T, k, L) == path[k % len(blocks)]
        for width in (1, 2, 3):
            for k in range(3):
                assert s.slab(width, k) == _text_slab(s, width, k, L)


def test_one_cycles_give_constant_schedules(line41):
    s = schedule_from_closed_path((v(5), v(5)), 1, 4)
    assert verify(line41, s)
    assert rate_vector(line41, s) == (F(1), F(0), F(0), F(1))


def test_closed_path_below_regime_can_fail_verify(hyper_n4):
    # All 16 columns are scheduling-graph vertices and the graph is
    # complete, so the collision witness is a closed window-1 path; its
    # induced schedule still collides (window 1 is below twice the
    # character).
    cols = [
        int("".join(str(b) for b in col), 2)
        for col in [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    ]
    s = schedule_from_closed_path((*cols, cols[0]), 1, 4)
    assert not verify(hyper_n4, s)


@pytest.mark.parametrize("seed", range(6))
def test_closed_paths_in_regime_verify(line41, hyper_n4, seed):
    rng = random.Random(4000 + seed)
    for net, T in ((line41, 1), (hyper_n4, 2)):
        w2 = build_window(net, 2 * T)
        nbits = len(net.links) * T
        vertices = list(build_window(net, T).independent_sets())
        path = [rng.choice(vertices)]
        for _ in range(rng.randint(1, 4)):
            options = [
                b for b in vertices
                if w2.is_independent((path[-1] << nbits) | b)
            ]
            path.append(rng.choice(options))
        if not w2.is_independent((path[-1] << nbits) | path[0]):
            path.append(0)
        path.append(path[0])
        s = schedule_from_closed_path(tuple(path), T, len(net.links))
        assert verify(net, s)


def test_verify_invariant_under_rotation(line41):
    s = build_framed_schedule(line41, [({"l1", "l4"}, 1), ({"l2"}, 1)], 3)
    rows = s.rows
    for shift in range(s.period):
        # Slot t of the rotation is slot t + shift of the schedule.
        rotated = PeriodicSchedule(
            s.period,
            tuple({(t - shift) % s.period for t in row} for row in rows),
        )
        assert verify(line41, rotated) == verify(line41, s)


def test_schedule_json_roundtrip(line41):
    s = build_framed_schedule(line41, [({"l1", "l4"}, 1), ({"l3"}, 2)], 3)
    doc = schedule_to_json(line41, s)
    back = schedule_from_json(line41, doc)
    assert back == s
    assert doc["period"] == 9
    assert set(doc["active"]) == {"l1", "l4", "l3"}


def test_schedule_from_json_wraps_negative_slots(line41):
    doc = {"period": 3, "active": {"l1": [-1], "l3": [-3, 4]}}
    s = schedule_from_json(line41, doc)
    assert s.rows == ({2}, set(), {0, 1}, set())


@pytest.mark.parametrize("doc, message", [
    ({"period": True}, "bad period True"),
    ({"period": 2, "active": [1]}, "bad active map"),
    ({"period": 2, "active": {"l1": [False]}}, "bad slot False for link 'l1'"),
    ({"period": 2, "active": {"l1": [1.0]}}, "bad slot 1.0 for link 'l1'"),
], ids=["period-bool", "active-list", "slot-bool", "slot-float"])
def test_schedule_from_json_rejects_malformed_documents(line41, doc, message):
    with pytest.raises(ValueError, match=message):
        schedule_from_json(line41, doc)


def test_schedule_from_json_holds_only_the_active_slots():
    # A dense row per link of a 10**6 period took tens of MB.
    net = line_network(3, 1)
    tracemalloc.start()
    try:
        s = schedule_from_json(net, {"period": 10**6, "active": {"l1": [5]}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert s.rows == ({5}, set(), set())


def test_schedule_with_a_huge_period_reads_writes_and_rates():
    net = line_network(3, 1)
    doc = {"period": 10**20, "active": {"l1": [0]}}
    s = schedule_from_json(net, doc)
    assert schedule_to_json(net, s) == doc
    assert verify(net, s)
    assert rate_vector(net, s) == (F(1, 10**20), F(0), F(0))


def test_every_schedule_reader_costs_per_active_slot(monkeypatch):
    # A reader that walks the period's slots or slabs would make 10**20 calls.
    net = line_network(3, 1)
    s = schedule_from_json(net, {"period": 10**20, "active": {"l1": [0]}})
    calls = []

    def spy(name):
        real = getattr(PeriodicSchedule, name)

        def counted(self, *args):
            calls.append(name)
            if len(calls) > 16:
                raise AssertionError(f"{len(calls)} calls of {name}")
            return real(self, *args)
        return counted

    for name in ("active", "slab"):
        monkeypatch.setattr(PeriodicSchedule, name, spy(name))
    for read, expected in [
        (lambda: s.slab(1, 10**20 - 1), 0),
        (lambda: s.slab(2, 5 * 10**19), 0b100000),
        (lambda: list(active_slots(net, s)), [(0, 0, True)]),
        (lambda: verify(net, s), True),
        (lambda: rate_vector(net, s), (F(1, 10**20), F(0), F(0))),
        (lambda: schedule_to_json(net, s), {"period": 10**20, "active": {"l1": [0]}}),
        (lambda: schedule_is_path(net, s, 1), True),
        (lambda: schedule_is_path(net, s, 3), True),
    ]:
        calls.clear()
        assert read() == expected


def _ref_free(network, s, link, t):
    """``is_collision_free_at`` read slot by slot through ``PeriodicSchedule.active``."""
    return not any(
        all(s.active(network.link_index(lp), t + network.delay(link, lp)) for lp in phi)
        for phi in network.profile(link)
    )


def _ref_diagnoses(network, s):
    """The per-link, per-slot loop over a period that ``active_slots`` replaced."""
    return [
        (li, t, _ref_free(network, s, link, t))
        for li, link in enumerate(network.links)
        for t in range(s.period)
        if s.active(li, t)
    ]


def _ref_verify(network, s):
    for li, link in enumerate(network.links):
        for t in range(s.period):
            if s.active(li, t) and not _ref_free(network, s, link, t):
                return False
    return True


def _ref_rate_vector(network, s):
    return tuple(
        F(sum(1 for t in range(s.period)
              if s.active(li, t) and _ref_free(network, s, link, t)), s.period)
        for li, link in enumerate(network.links)
    )


@pytest.mark.parametrize("seed", range(4))
def test_active_slots_verify_and_rate_match_the_slot_loops(seed):
    rng = random.Random(8800 + seed)
    hyper = 0
    for _ in range(60):
        net = random_network(rng)
        hyper += not is_binary(net)
        period = rng.randint(1, 6)
        rows = tuple(
            {t for t in range(period) if rng.random() < 0.4} for _ in net.links
        )
        s = PeriodicSchedule(period, rows)
        assert list(active_slots(net, s)) == _ref_diagnoses(net, s)
        assert verify(net, s) == _ref_verify(net, s)
        assert rate_vector(net, s) == _ref_rate_vector(net, s)
    assert hyper > 0


@pytest.mark.parametrize("seed", range(4))
def test_collision_check_matches_a_reference_on_active(seed):
    # Slots run over two periods either side of 0, so negative offsets wrap.
    rng = random.Random(8900 + seed)
    hyper = wrapped = 0
    for _ in range(40):
        net = random_network(rng)
        hyper += not is_binary(net)
        period = rng.randint(1, 6)
        s = PeriodicSchedule(period, [{t for t in range(period) if rng.random() < 0.5}
                                      for _ in net.links])
        for link in net.links:
            for t in range(-2 * period, 2 * period):
                wrapped += any(t + net.delay(link, lp) < 0
                               for phi in net.profile(link) for lp in phi)
                assert is_collision_free_at(net, s, link, t) == _ref_free(net, s, link, t)
    assert hyper > 0 and wrapped > 0


def test_verify_stops_at_the_first_collision(monkeypatch, line41):
    # (l1, 0) collides; verify reads no slot after it.
    s = PeriodicSchedule(2, ({0}, {1}, {1}, {0}))
    seen = []

    def check(network, s, link, t):
        seen.append((link, t))
        return is_collision_free_at(network, s, link, t)

    monkeypatch.setattr(schedule_mod, "is_collision_free_at", check)
    assert not verify(line41, s)
    assert seen == [("l1", 0)]


@pytest.mark.parametrize("period, rows", [
    (2.0, ({0}, {1})),
    (True, ({0}, set())),
], ids=["float", "bool"])
def test_schedule_rejects_a_period_that_is_not_an_int(period, rows):
    with pytest.raises(ValueError, match=f"bad period {period!r}"):
        PeriodicSchedule(period, rows)


@pytest.mark.parametrize("period, rows", [
    (2, ((1, 0), (0,))), (2, ((1, 0, 1), (0, 1))), (2, ([1, 0], [0, 1])), (3, ((1, 0, 0),)),
], ids=["short", "long", "list", "one-row"])
def test_schedule_rejects_a_dense_row(period, rows):
    # A 0/1 row is refused, not read as the slots it holds.
    message = f"bad schedule row {rows[0]!r} for period {period}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PeriodicSchedule(period, rows)


@pytest.mark.parametrize("slot", [2, -1, True, 1.0], ids=["two", "negative", "bool", "float"])
def test_schedule_rejects_a_slot_outside_the_period(slot):
    message = f"bad schedule row {({slot})!r} for period 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        PeriodicSchedule(2, ({0}, {slot}))


@pytest.mark.parametrize("count", [3, 5], ids=["fewer", "more"])
def test_schedule_rows_must_match_the_network_links(line41, count):
    s = PeriodicSchedule(1, ({0},) * count)
    for check in (lambda: active_slots(line41, s), lambda: verify(line41, s),
                  lambda: rate_vector(line41, s), lambda: schedule_is_path(line41, s, 1)):
        with pytest.raises(ValueError, match=f"schedule has {count} rows for 4 links"):
            check()


@pytest.mark.parametrize("count", [2, 4], ids=["fewer", "more"])
@pytest.mark.parametrize("read", [
    lambda net, s: is_collision_free_at(net, s, "l2", 0),  # reads l3's row
    lambda net, s: list(active_slots(net, s)),
    verify,
    rate_vector,
    schedule_to_json,
], ids=["is_collision_free_at", "active_slots", "verify", "rate_vector", "schedule_to_json"])
def test_every_schedule_reader_checks_the_row_count(read, count):
    # Fewer rows once read past the last one; more were answered or dropped.
    net = line_network(3, 1)
    s = PeriodicSchedule(2, ({0}, {1}, set(), {0, 1})[:count])
    with pytest.raises(ValueError, match=f"schedule has {count} rows for 3 links"):
        read(net, s)


@pytest.mark.parametrize("t", ["x", None, 0.0, True, 1.5], ids=repr)
def test_collision_check_rejects_a_slot_that_is_not_an_int(t):
    # l4 has no collision set, so no slot was read: every t passed, and True read slot 1.
    s = PeriodicSchedule(2, ({0}, {1}, {1}, {0}))
    with pytest.raises(ValueError, match=re.escape(f"bad slot {t!r}")):
        is_collision_free_at(line_network(4, 1), s, "l4", t)


@pytest.mark.parametrize("k", [1.5, "x", True, None], ids=repr)
def test_slab_rejects_an_index_that_is_not_an_int(k):
    s = PeriodicSchedule(2, [{0}, {1}])
    with pytest.raises(ValueError, match=re.escape(f"bad slab index {k!r}")):
        s.slab(1, k)


def test_slab_takes_any_int_index():
    s = PeriodicSchedule(2, [{0}, {1}])
    assert [s.slab(1, k) for k in (-1, 0, 1, 2)] == [0b01, 0b10, 0b01, 0b10]


@pytest.mark.parametrize("count", [2, 4], ids=["fewer", "more"])
def test_a_schedule_with_no_active_slot_still_checks_the_row_count(count):
    s = PeriodicSchedule(5, (set(),) * count)
    with pytest.raises(ValueError, match=f"schedule has {count} rows for 3 links"):
        schedule_is_path(line_network(3, 1), s, 1)


@pytest.mark.parametrize("rows", [(set(),) * 3, ({0}, {1}, {2})], ids=["idle", "busy"])
def test_schedule_is_path_checks_the_row_count_before_it_builds_a_window(monkeypatch, rows):
    # The row count was read from the first slab, after the doubled window
    # was built: 443 ms and 14 MB for this 10000-slot one.
    def refuse(network, T):
        raise AssertionError(f"built a {T}-slot window")

    monkeypatch.setattr(schedgraph_mod, "build_window", refuse)
    with pytest.raises(ValueError, match="schedule has 3 rows for 2 links"):
        schedule_is_path(line_network(2, 1), PeriodicSchedule(5, rows), 5000)


@pytest.mark.parametrize("T", [0, -1])
def test_slab_rejects_a_window_length_below_one(T):
    # Read as the empty block before; tests/test_arguments.py covers True and 2.0.
    s = PeriodicSchedule(2, [{0}, {1}])
    with pytest.raises(ValueError, match="window length must be >= 1"):
        s.slab(T, 0)


@pytest.mark.parametrize("T_F", [3.0, True], ids=["float", "bool"])
def test_framed_schedule_rejects_a_frame_length_that_is_not_an_int(T_F):
    # No delays, so D* = 0 and any frame length of at least 1 would pass.
    free = make_network(["a", "b"], {}, {})
    with pytest.raises(ValueError, match="bad frame length"):
        build_framed_schedule(free, [({"a", "b"}, 1)], T_F)


@pytest.mark.parametrize("repeats, message", [
    (1.9, "bad repeat count 1.9"), (True, "bad repeat count True"),
    (-2, "repeat count must be >= 0"), ("2", "bad repeat count '2'"),
], ids=["float", "bool", "negative", "string"])
def test_framed_schedule_rejects_a_bad_repeat_count(repeats, message):
    line = line_network(4, 1)
    with pytest.raises(ValueError, match=message):
        build_framed_schedule(line, [({"l1"}, 1), ({"l4"}, repeats)], 3)


def test_framed_schedule_rejects_a_frame_whose_links_are_a_string():
    # Read as the links "a" and "b" before, so both were turned on.
    free = make_network(["a", "b"], {}, {})
    with pytest.raises(ValueError, match="bad frame links 'ab'"):
        build_framed_schedule(free, [("ab", 1)], 1)


@pytest.mark.parametrize("frames, message", [
    ([({"l1"}, 0), ({"l4"}, 0)], "frame list has no repeats"),
    ([({"l1", "l9"}, 1)], r"frame references unknown links \['l9'\]"),
], ids=["all-zero-repeats", "unknown-link"])
def test_framed_schedule_rejects_a_bad_frame_list(line41, frames, message):
    with pytest.raises(ValueError, match=message):
        build_framed_schedule(line41, frames, 3)


def test_framed_schedule_takes_a_zero_repeat_count(line41):
    s = build_framed_schedule(line41, [({"l1"}, 0), ({"l4"}, 2)], 3)
    assert s == build_framed_schedule(line41, [({"l4"}, 2)], 3)


def _dense_framed(network, frames, T_F):
    """Framed schedule filled slot by slot, with the builder's checks in its order."""
    if type(T_F) is not int:
        raise ValueError(f"bad frame length {T_F!r}")
    if T_F < 1:
        raise ValueError("frame length must be >= 1")
    dstar = character(network)
    minimum = 2 * dstar + 1 if is_binary(network) else 3 * dstar + 1
    if T_F < minimum:
        raise ValueError(f"frame length {T_F} below minimum {minimum}")
    for _, repeats in frames:
        if type(repeats) is not int:
            raise ValueError(f"bad repeat count {repeats!r}")
        if repeats < 0:
            raise ValueError("repeat count must be >= 0")
    total = sum(rep for _, rep in frames)
    if total == 0:
        raise ValueError("frame list has no repeats")
    rows = [[0] * (T_F * total) for _ in network.links]
    frame_no = 0
    for links, repeats in frames:
        if isinstance(links, str):
            raise ValueError(f"bad frame links {links!r}")
        linkset = frozenset(links)
        unknown = linkset - set(network.links)
        if unknown:
            raise ValueError(f"frame references unknown links {sorted(unknown)}")
        if any(phi <= linkset for l in linkset for phi in network.profile(l)):
            raise ValueError(f"frame link set {sorted(linkset)} is not independent")
        for _ in range(repeats):
            for link in linkset:
                for j in range(T_F - dstar):
                    rows[network.link_index(link)][frame_no * T_F + j] = 1
            frame_no += 1
    return PeriodicSchedule(T_F * total, [{t for t, on in enumerate(row) if on} for row in rows])


def _outcome(build, *args):
    try:
        s = build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return s.period, s.rows


def test_framed_schedule_matches_a_dense_reference():
    built = hyper = 0
    for seed in range(500):
        rng = random.Random(seed)
        net = random_network(rng)
        frames = [(set(rng.sample([*net.links, "x"], rng.randint(0, 2))), rng.randint(0, 2))
                  for _ in range(rng.randint(1, 3))]
        dstar = character(net)
        minimum = 2 * dstar + 1 if is_binary(net) else 3 * dstar + 1
        T_F = rng.randint(minimum - 1, minimum + 2)
        want = _outcome(_dense_framed, net, frames, T_F)
        assert _outcome(build_framed_schedule, net, frames, T_F) == want, (seed, frames, T_F)
        if type(want[0]) is int:
            built += 1
            hyper += not is_binary(net)
    assert built >= 120 and hyper >= 30


@pytest.mark.parametrize("args, message", [
    ((-1, 0), "link index must be >= 0"),
    ((True, 1), "bad link index True"),
    ((2, 0), "link index 2 is out of range for 2 rows"),
    ((0, 1.5), "bad slot 1.5"),
    ((0, True), "bad slot True"),
], ids=["negative-link", "bool-link", "link-past-the-rows", "float-slot", "bool-slot"])
def test_active_rejects_a_bad_link_index_or_slot(args, message):
    with pytest.raises(ValueError, match=message):
        PeriodicSchedule(2, [{0}, {1}]).active(*args)


def test_schedule_stores_set_rows_as_frozensets():
    listed = PeriodicSchedule(2, [{0}] * 4)
    frozen = PeriodicSchedule(2, (frozenset({0}),) * 4)
    assert listed.rows == frozen.rows and type(listed.rows[0]) is frozenset
    assert listed == frozen
    assert hash(listed) == hash(frozen)
