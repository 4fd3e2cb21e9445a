"""Periodic schedules, collision checking and exact rate vectors.

A schedule assigns each link an activity bit per timeslot over all of Z;
only periodic schedules are representable.  Each link's row is the set of
its active slots in ``range(P)``, so ``(l, t)`` is active iff ``t mod P``
is in row ``l``, and a schedule costs memory per active slot, not per
slot of its period.  Rates are exact rationals: the limit
defining a link's rate collapses, for a periodic schedule, to the count
of collision-free active slots in one period over the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .network import Network, character, check_list, is_binary
from .window import bit_position, check_block, check_closed, check_int, link_row_masks

__all__ = [
    "PeriodicSchedule",
    "is_collision_free_at",
    "active_slots",
    "verify",
    "rate_vector",
    "build_framed_schedule",
    "schedule_from_closed_path",
    "schedule_from_json",
    "schedule_to_json",
]


@dataclass(frozen=True)
class PeriodicSchedule:
    """Binary |L| x P matrix over all integer time, each row its active slots.

    A row must be a set or frozenset of ints (not bools) in
    ``range(period)``, else ValueError; a dense 0/1 row is refused.
    """

    period: int
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        check_int("period", self.period, 1)
        rows = tuple(self.rows)
        for row in rows:
            if not isinstance(row, (set, frozenset)) or any(
                    type(t) is not int or not 0 <= t < self.period for t in row):
                raise ValueError(f"bad schedule row {row!r} for period {self.period}")
        # Frozenset rows keep the frozen schedule hashable and equal to its set form.
        object.__setattr__(self, "rows", tuple(map(frozenset, rows)))

    def active(self, link_index: int, t: int) -> int:
        """Bit of ``(link_index, t)``: ``t`` is any int slot, read modulo the period.

        A link index that is not an int (not a bool) in ``range(len(rows))``,
        or a slot that is not an int (not a bool), raises ValueError.
        """
        if check_int("link index", link_index, 0) >= len(self.rows):
            raise ValueError(f"link index {link_index} is out of range for {len(self.rows)} rows")
        if type(t) is not int:
            raise ValueError(f"bad slot {t!r}")
        return 1 if t % self.period in self.rows[link_index] else 0

    def slab(self, T: int, k: int) -> int:
        """Columns ``kT .. (k+1)T - 1`` as a block of one bit row per schedule row.

        ``T`` is a window length (``check_int``); ``k`` is any int (not a
        bool) slab index, else ValueError.
        """
        check_int("window length", T, 1)
        if type(k) is not int:
            raise ValueError(f"bad slab index {k!r}")
        return sum(1 << bit_position(l, j, len(self.rows), T) for l, row in enumerate(self.rows)
                   for j in range(T) if (k * T + j) % self.period in row)


def check_rows(s: PeriodicSchedule, num_links: int) -> None:
    """ValueError unless ``s`` has ``num_links`` rows: the one row-count check
    of every function reading a schedule against a network."""
    if len(s.rows) != num_links:
        raise ValueError(f"schedule has {len(s.rows)} rows for {num_links} links")


def is_collision_free_at(network: Network, s: PeriodicSchedule, link: str, t: int) -> bool:
    """True iff every collision set of ``link`` has an inactive member at its offset.

    A slot that is not an int (not a bool) raises ValueError, a link the
    network does not have InvalidNetworkError, and a schedule without one
    row per link of the network ValueError.
    """
    if type(t) is not int:
        raise ValueError(f"bad slot {t!r}")
    check_rows(s, len(network.links))
    network.link_index(link)
    for phi in network.profile(link):
        if all((t + network.delay(link, lp)) % s.period in s.rows[network.link_index(lp)]
               for lp in phi):
            return False
    return True


def active_slots(network: Network, s: PeriodicSchedule) -> Iterator[tuple[int, int, bool]]:
    """``(link index, t, collision free)`` for each active slot of one period.

    Links come in network order, slots ascending.  The schedule must have
    one row per link of the network, else ValueError.
    """
    check_rows(s, len(network.links))
    return (
        (li, t, is_collision_free_at(network, s, link, t))
        for li, link in enumerate(network.links)
        for t in sorted(s.rows[li])
    )


def verify(network: Network, s: PeriodicSchedule) -> bool:
    """Collision-free over all of Z; by periodicity one period suffices."""
    return all(free for _, _, free in active_slots(network, s))


def rate_vector(network: Network, s: PeriodicSchedule) -> tuple[Fraction, ...]:
    """Per-link fraction of timeslots that are active and collision free."""
    good = [0] * len(network.links)
    for li, _, free in active_slots(network, s):
        good[li] += free
    return tuple(Fraction(g, s.period) for g in good)


def build_framed_schedule(
    network: Network,
    frames: Sequence[tuple[Iterable[str], int]],
    T_F: int,
) -> PeriodicSchedule:
    """Frame-synchronized schedule: guard slots silence the last D* slots.

    Each entry ``(links, repeats)`` contributes ``repeats`` frames in which
    exactly those links are active for the first ``T_F - D*`` slots; a
    repeat count must be an int >= 0 (not a bool), else ValueError.  The
    frame length must be at least ``2 D* + 1`` for binary profiles and
    ``3 D* + 1`` otherwise, and every frame's link set must be independent
    in the static conflict structure; both are enforced.  A frame's links
    must be an iterable of link names other than a str.  Each frame is
    one ``T_F``-block, and the schedule is the closed path of the frames.
    """
    check_int("frame length", T_F, 1)
    dstar = character(network)
    minimum = 2 * dstar + 1 if is_binary(network) else 3 * dstar + 1
    if T_F < minimum:
        raise ValueError(f"frame length {T_F} below minimum {minimum}")
    for _, repeats in frames:
        check_int("repeat count", repeats, 0)
    if sum(rep for _, rep in frames) == 0:
        raise ValueError("frame list has no repeats")
    L = len(network.links)
    masks = link_row_masks(L, T_F)
    # Column 0 is the most significant: keep the first T_F - D* columns.
    lit = ((1 << (T_F - dstar) * L) - 1) << dstar * L
    path = []
    for links, repeats in frames:
        if isinstance(links, str):
            raise ValueError(f"bad frame links {links!r}")
        linkset = frozenset(links)
        unknown = linkset - set(network.links)
        if unknown:
            raise ValueError(f"frame references unknown links {sorted(unknown)}")
        # Static independence: the frame's links, always on, collide nowhere.
        always_on = PeriodicSchedule(1, [{0} if l in linkset else set() for l in network.links])
        if not verify(network, always_on):
            raise ValueError(f"frame link set {sorted(linkset)} is not independent")
        path += [sum(masks[network.link_index(link)] for link in linkset) & lit] * repeats
    return schedule_from_closed_path([*path, path[0]], T_F, L)


def schedule_from_closed_path(path: Sequence[int], T: int, num_links: int) -> PeriodicSchedule:
    """Period ``k*T`` schedule whose i-th length-T slab is the i-th block.

    ``path`` is a closed block path (``check_closed``); the closing block
    is not repeated in the period.  A path that is not closed, or a block
    with a bit outside the ``num_links * T`` bits of a T-window, raises
    ValueError.
    """
    check_closed("path", path)
    for block in path:
        check_block(block, num_links, T)
    rows = [{i * T + t for i, b in enumerate(path[:-1]) for t in range(T)
             if b >> bit_position(l, t, num_links, T) & 1} for l in range(num_links)]
    return PeriodicSchedule((len(path) - 1) * T, rows)


def schedule_to_json(network: Network, s: PeriodicSchedule) -> dict:
    """The schedule's document: its period and each active link's active slots."""
    check_rows(s, len(network.links))
    return {
        "period": s.period,
        "active": {link: sorted(s.rows[li]) for li, link in enumerate(network.links)
                   if s.rows[li]},
    }


def schedule_from_json(network: Network, doc: Mapping) -> PeriodicSchedule:
    """Parse a schedule document against ``network``.

    Every malformed document, a missing key or a member of the wrong type
    included, raises ValueError as ``bad schedule document: ...``.
    """
    try:
        period = check_int("period", doc["period"], 1)
        active = doc.get("active", {})
        if not isinstance(active, Mapping):
            raise ValueError(f"bad active map {active!r}")
        rows = [set() for _ in network.links]
        for link, slots in active.items():
            li = network.link_index(link)
            for t in check_list(f"slots of {link!r}", slots):
                if type(t) is not int:
                    raise ValueError(f"bad slot {t!r} for link {link!r}")
                rows[li].add(t % period)
        return PeriodicSchedule(period, rows)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"bad schedule document: {exc}") from exc
