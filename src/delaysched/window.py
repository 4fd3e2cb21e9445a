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

from .errors import CapExceededError
from .network import Network

__all__ = [
    "WindowGraph",
    "build_window",
    "bit_position",
    "block_from_rows",
    "block_to_rows",
    "brute_force_cap",
    "join_pair",
    "link_row_masks",
    "split_pair",
]

DEFAULT_CAP_BITS = 24


def brute_force_cap() -> int:
    env = os.environ.get("DELAYSCHED_CAP_BITS")
    return int(env) if env else DEFAULT_CAP_BITS


def bit_position(link_index: int, t: int, num_links: int, T: int) -> int:
    """Bit index (from LSB) of matrix entry ``(link, t)``."""
    return (T - 1 - t) * num_links + (num_links - 1 - link_index)


def link_row_masks(num_links: int, T: int) -> list[int]:
    """Per link, the mask of its T bits in a block: popcount gives its count."""
    column = sum(1 << t * num_links for t in range(T))
    return [column << (num_links - 1 - l) for l in range(num_links)]


def block_from_rows(rows, T: int) -> int:
    """Pack per-link 0/1 strings (one per link, length T) into an int."""
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

    def check_cap(self) -> None:
        """Raise ``CapExceededError`` if the window is past the brute-force cap."""
        if self.nbits > brute_force_cap():
            raise CapExceededError(
                f"{self.nbits} bits exceeds brute-force cap {brute_force_cap()}"
            )

    def independent_sets(self) -> Iterator[int]:
        """Yield every independent assignment once, in ascending bit order."""
        self.check_cap()
        yield from self._independent_rec(self.nbits - 1, 0, self._masks_by_min())

    def _masks_by_min(self) -> list[list[int]]:
        by_min: list[list[int]] = [[] for _ in range(self.nbits)]
        for m in self.masks:
            low = (m & -m).bit_length() - 1
            by_min[low].append(m)
        return by_min

    def _independent_rec(self, p, cur, by_min) -> Iterator[int]:
        if p < 0:
            yield cur
            return
        yield from self._independent_rec(p - 1, cur, by_min)
        nxt = cur | (1 << p)
        # A constraint whose lowest bit is p is fully decided here.
        if all(nxt & m != m for m in by_min[p]):
            yield from self._independent_rec(p - 1, nxt, by_min)

    def maximal_independent_sets(self) -> list[int]:
        """All inclusion-maximal independent assignments, sorted.

        Binary profiles reduce to maximal cliques of the complement of the
        pairwise conflict graph (pivoted Bron-Kerbosch, uncapped); general
        profiles use a branch-and-bound walk that checks each left-out
        vertex's maximality certificate at that vertex's deadline, the
        lowest bit of its masks, and cuts the branch there if it fails.
        The walk is still exponential in the worst case and stays held to
        the brute-force cap.
        """
        if all(m.bit_count() <= 2 for m in self.masks):
            out = self._maximal_binary()
        else:
            self.check_cap()
            out = self._maximal_hyper()
        return sorted(out)

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
        out: list[int] = []

        def expand(r: int, p: int, x: int):
            if p == 0 and x == 0:
                out.append(r)
                return
            pivot_pool = p | x
            pivot = -1
            best = -1
            pool = pivot_pool
            while pool:
                u = (pool & -pool).bit_length() - 1
                pool &= pool - 1
                score = (p & comp[u]).bit_count()
                if score > best:
                    best, pivot = score, u
            cand = p & ~comp[pivot]
            while cand:
                v = (cand & -cand).bit_length() - 1
                vbit = cand & -cand
                cand &= cand - 1
                expand(r | vbit, p & comp[v], x & comp[v])
                p &= ~vbit
                x |= vbit

        expand(0, universe, 0)
        return out

    def _maximal_hyper(self) -> list[int]:
        n = self.nbits
        by_min = self._masks_by_min()
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
        out: list[int] = []

        def certified(bits: int, p: int) -> bool:
            # A left-out vertex due at p must complete one of its masks.
            return all(
                bits & vbit or any(bits & r == r for r in vrests)
                for vbit, vrests in due[p]
            )

        def walk(p: int, cur: int):
            if p < 0:
                out.append(cur)
                return
            if certified(cur, p):
                walk(p - 1, cur)
            nxt = cur | (1 << p)
            if all(nxt & m != m for m in by_min[p]) and certified(nxt, p):
                walk(p - 1, nxt)

        walk(n - 1, 0)
        return out


def build_window(network: Network, T: int) -> WindowGraph:
    """Materialize the induced window graph on timeslots ``0..T-1``.

    A hyperedge is kept only if its source and every target fall inside
    the window; edges reaching outside are dropped entirely, matching the
    induced-subgraph definition.  Masks are listed once each, by link name,
    then slot, then collision set in profile order.
    """
    if T < 1:
        raise ValueError("window length must be >= 1")
    L = len(network.links)
    masks = []
    for link in sorted(network.links):
        # Per collision set: the slot it starts at relative to the source,
        # the slots it spans, and its mask in a window of exactly those slots.
        shapes = []
        for phi in network.profile(link):
            members = [(link, 0)] + [(lp, network.delay(link, lp)) for lp in phi]
            lo = min(d for _, d in members)
            span = max(d for _, d in members) - lo + 1
            template = 0
            for lp, d in members:
                template |= 1 << bit_position(network.link_index(lp), d - lo, L, span)
            shapes.append((lo, span, template))
        for t in range(T):
            for lo, span, template in shapes:
                if 0 <= t + lo <= T - span:
                    masks.append(template << (T - span - t - lo) * L)
    return WindowGraph(network, T, tuple(dict.fromkeys(masks)))
