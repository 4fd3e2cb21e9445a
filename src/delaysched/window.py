"""Finite window graphs and their (maximal) independent sets.

The infinite periodic hypergraph of a network lives on ``links x Z``; the
window graph is its induced subgraph on timeslots ``0..T-1``.  Assignments
(binary |L| x T matrices) are packed into ints, column-major, with link 0
as the most significant bit of each column and column 0 as the most
significant column.  Dominance is then a bitwise test and juxtaposition a
shift-or.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

from .network import Network

__all__ = [
    "CapExceededError",
    "WindowGraph",
    "build_window",
    "bit_position",
    "block_from_rows",
    "block_to_rows",
    "check_bits",
    "check_block",
    "check_closed",
    "check_int",
    "join_pair",
    "link_row_masks",
    "split_pair",
]

DEFAULT_CAP_BITS = 24


class CapExceededError(RuntimeError):
    """A brute-force enumeration would exceed the configured bit cap."""


def bit_position(link_index: int, t: int, num_links: int, T: int) -> int:
    """Bit index (from LSB) of matrix entry ``(link, t)``."""
    return (T - 1 - t) * num_links + (num_links - 1 - link_index)


def check_int(name: str, value: int, least: int) -> int:
    """``value`` if it is an int (not a bool) >= ``least``, else ValueError.

    The one check of a window length, search length, period, frame length
    or repeat count: delays are whole multiples of one timeslot, so each
    of these counts slots or blocks.
    """
    if type(value) is not int:
        raise ValueError(f"bad {name} {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def check_bits(nbits: int) -> None:
    """Raise ``CapExceededError`` if a window of ``nbits`` bits is past the
    brute-force cap (``DELAYSCHED_CAP_BITS``, default 24).

    Callers that know their window's size check it before building the
    window, whose masks grow as its bit count squared.
    """
    env = os.environ.get("DELAYSCHED_CAP_BITS")
    try:
        cap = int(env) if env else DEFAULT_CAP_BITS
    except ValueError:
        raise ValueError(f"DELAYSCHED_CAP_BITS must be an int, got {env!r}") from None
    if nbits > cap:
        raise CapExceededError(f"{nbits} bits exceeds brute-force cap {cap}")


def check_block(bits: int, num_links: int, T: int) -> None:
    """Raise ValueError unless ``T`` is a window length and ``bits`` a block
    of a T-window: an int (not a bool), not negative, and no bit at or
    above ``num_links * T``."""
    check_int("window length", T, 1)
    if type(bits) is not int or bits < 0 or bits >> num_links * T:
        raise ValueError(f"block {bits!r} is not a {num_links} x {T} block")


def check_closed(name: str, path):
    """``path`` if it is a closed block path, else ValueError.

    The one check of a witness, cycle or schedule path: at least two
    blocks, the last equal to the first.  Its blocks are not checked.
    """
    if len(path) < 2 or path[0] != path[-1]:
        raise ValueError(f"{name} is not a closed block path")
    return path


def link_row_masks(num_links: int, T: int) -> list[int]:
    """Per link, the mask of its T bits in a block: popcount gives its count."""
    column = sum(1 << t * num_links for t in range(T))
    return [column << (num_links - 1 - l) for l in range(num_links)]


def block_from_rows(rows, T: int) -> int:
    """Pack per-link 0/1 strings (one per link, length T) into an int."""
    check_int("window length", T, 1)
    L = len(rows)
    bits = 0
    for l, row in enumerate(rows):
        if len(row) != T:
            raise ValueError(f"row {l} has length {len(row)}, expected {T}")
        for t, ch in enumerate(row):
            if ch == "1":
                bits |= 1 << bit_position(l, t, L, T)
            elif ch != "0":
                raise ValueError(f"row {l} has non-binary character {ch!r}")
    return bits


def block_to_rows(bits: int, num_links: int, T: int) -> list[str]:
    return [
        "".join(
            "1" if bits >> bit_position(l, t, num_links, T) & 1 else "0"
            for t in range(T)
        )
        for l in range(num_links)
    ]


def join_pair(a: int, b: int, nbits: int) -> int:
    """Juxtapose two T-blocks of ``nbits`` bits into one 2T-window block.

    Column 0 is the most significant, so ``a`` takes the high half.
    """
    return (a << nbits) | b


def split_pair(pair_bits: int, nbits: int) -> tuple[int, int]:
    """Split a juxtaposed 2T-window block into its (left, right) T-blocks."""
    return pair_bits >> nbits, pair_bits & ((1 << nbits) - 1)


@dataclass(frozen=True)
class WindowGraph:
    """Induced hypergraph on ``links x {0..T-1}`` with bitmask edge forms."""

    network: Network
    T: int
    masks: tuple[int, ...] = field(repr=False)

    @property
    def nbits(self) -> int:
        return len(self.network.links) * self.T

    def is_independent(self, bits: int) -> bool:
        """No hyperedge has its source and all its targets active."""
        return all(bits & m != m for m in self.masks)

    def independent_sets(self) -> Iterator[int]:
        """Yield every independent assignment once, in ascending bit order."""
        yield from self._walk([()] * self.nbits)

    def _walk(self, due) -> Iterator[int]:
        """Branch over bits from the top down, excluding before including, so
        independent sets come out ascending; the one capped enumeration.

        ``due[p]`` lists ``(vbit, rests)`` certificates checked once bit p is
        decided: the set holds ``vbit`` or some ``rest`` whole, else the
        branch is cut.  An empty list is skipped without a call.
        """
        check_bits(self.nbits)
        n = self.nbits
        by_min: list[list[int]] = [[] for _ in range(n)]
        for m in self.masks:
            by_min[(m & -m).bit_length() - 1].append(m)
        stack = [(n - 1, 0)]
        while stack:
            p, cur = stack.pop()
            if p < 0:
                yield cur
                continue
            nxt = cur | 1 << p
            certificates = due[p]
            # A constraint whose lowest bit is p is fully decided here.
            # Include goes on the stack first, so exclude comes off first.
            if all(nxt & m != m for m in by_min[p]) and (
                not certificates or _certified(nxt, certificates)
            ):
                stack.append((p - 1, nxt))
            if not certificates or _certified(cur, certificates):
                stack.append((p - 1, cur))

    def maximal_independent_sets(self) -> list[int]:
        """All inclusion-maximal independent assignments, sorted.

        Binary profiles reduce to maximal cliques of the complement of the
        pairwise conflict graph (pivoted Bron-Kerbosch, uncapped); general
        profiles use the branch walk of ``independent_sets`` with each
        vertex's maximality certificate due at its deadline, the lowest bit
        of its masks, cutting the branch there if it fails.  That walk is
        still exponential in the worst case and stays held to the cap.
        """
        if all(m.bit_count() <= 2 for m in self.masks):
            return sorted(self._maximal_binary())
        return sorted(self._maximal_hyper())

    def _maximal_binary(self) -> list[int]:
        n = self.nbits
        universe = (1 << n) - 1
        adj = [0] * n
        for m in self.masks:
            if m & (m - 1) == 0:
                # Self-conflicting vertex can never be active.
                universe &= ~m
                continue
            lo = (m & -m).bit_length() - 1
            hi = m.bit_length() - 1
            adj[lo] |= 1 << hi
            adj[hi] |= 1 << lo
        # Complement adjacency restricted to usable vertices.
        comp = [
            (universe & ~(adj[v] | (1 << v))) if universe >> v & 1 else 0
            for v in range(n)
        ]
        # A usable vertex with no usable conflict is in every maximal set:
        # it starts in R, so no level of the search is spent on it.
        free = 0
        for v in range(n):
            if comp[v] == universe ^ (1 << v):
                free |= 1 << v
        out: list[int] = []
        stack = [(free, universe & ~free, 0)]
        while stack:
            r, p, x = stack.pop()
            if p == 0 and x == 0:
                out.append(r)
                continue
            pivot = -1
            best = -1
            pool = p | x
            while pool:
                u = (pool & -pool).bit_length() - 1
                pool &= pool - 1
                score = (p & comp[u]).bit_count()
                if score > best:
                    best, pivot = score, u
            # Branch on each candidate v in ascending order, the ones before
            # it moved from p to x; pushed from the top so the least pops first.
            cand = p & ~comp[pivot]
            while cand:
                v = cand.bit_length() - 1
                vbit = 1 << v
                cand ^= vbit
                stack.append((r | vbit, p & ~cand & comp[v], (x | cand) & comp[v]))
        return out

    def _maximal_hyper(self) -> list[int]:
        n = self.nbits
        # A vertex's deadline is the lowest bit of any mask holding it (itself
        # if none does): once that bit is decided, so is every such mask.
        rests: list[list[int]] = [[] for _ in range(n)]
        deadline = list(range(n))
        for m in self.masks:
            low = (m & -m).bit_length() - 1
            mm = m
            while mm:
                vbit = mm & -mm
                mm ^= vbit
                v = vbit.bit_length() - 1
                rests[v].append(m ^ vbit)
                deadline[v] = min(deadline[v], low)
        due: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
        for v in range(n):
            due[deadline[v]].append((1 << v, rests[v]))
        return list(self._walk(due))


def _certified(bits: int, certificates) -> bool:
    # A left-out vertex whose certificate is due must complete one of its masks.
    return all(
        bits & vbit or any(bits & r == r for r in rests)
        for vbit, rests in certificates
    )


def build_window(network: Network, T: int) -> WindowGraph:
    """Materialize the induced window graph on timeslots ``0..T-1``.

    A hyperedge is kept only if its source and every target fall inside
    the window; edges reaching outside are dropped entirely, matching the
    induced-subgraph definition.  Masks are listed once each, by link name,
    then slot, then collision set in profile order.
    """
    check_int("window length", T, 1)
    L = len(network.links)
    masks = []
    for link in sorted(network.links):
        # Per collision set: the slot it starts at relative to the source,
        # the slots it spans, and its mask in a window of exactly those slots.
        # Every member is read first, so a bad one raises even when the set
        # spans more than T slots and so never fits the window.
        shapes = []
        for phi in network.profile(link):
            members = [(network.link_index(link), 0)] + [
                (network.link_index(lp), network.delay(link, lp)) for lp in phi
            ]
            lo = min(d for _, d in members)
            span = max(d for _, d in members) - lo + 1
            if span > T:
                continue
            template = 0
            for li, d in members:
                template |= 1 << bit_position(li, d - lo, L, span)
            shapes.append((lo, span, template))
        for t in range(T):
            for lo, span, template in shapes:
                if 0 <= t + lo <= T - span:
                    masks.append(template << (T - span - t - lo) * L)
    return WindowGraph(network, T, tuple(dict.fromkeys(masks)))
