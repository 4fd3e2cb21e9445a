"""Scheduling graphs: feasible time slabs and feasible slab transitions.

Vertices are the |L| x T blocks that some collision-free schedule can
exhibit as a slab; edges are the block pairs it can exhibit consecutively.
Because a hyperedge only fires when *all* of its endpoints are active,
padding with zeros outside a window removes every out-of-window collision
opportunity, so membership reduces to independence in the induced window
graphs: a block is a vertex iff it is independent in the T-window, and a
pair is an edge iff the juxtaposed 2T-window matrix is independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from .network import Network
from .schedule import PeriodicSchedule, check_rows
from .window import build_window, check_bits, check_block, check_int, join_pair, split_pair

__all__ = [
    "SchedulingGraph",
    "MaximalEdgeGraph",
    "is_vertex",
    "has_edge",
    "build",
    "build_maximal",
    "schedule_is_path",
]


@dataclass(frozen=True)
class SchedulingGraph:
    """Explicit vertex and adjacency representation for one window length."""

    vertices: tuple[int, ...]
    adjacency: Mapping[int, tuple[int, ...]]

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values())


@dataclass(frozen=True)
class MaximalEdgeGraph:
    """Dominance-maximal edges and their endpoint projections.

    The maximal edges are exactly the maximal independent sets of the
    doubled window, split into left/right halves.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def is_vertex(network: Network, block: int, T: int) -> bool:
    check_block(block, len(network.links), T)
    return build_window(network, T).is_independent(block)


def has_edge(network: Network, a: int, b: int, T: int) -> bool:
    check_block(a, len(network.links), T)
    check_block(b, len(network.links), T)
    pair = join_pair(a, b, len(network.links) * T)
    return build_window(network, 2 * T).is_independent(pair)


def build(network: Network, T: int) -> SchedulingGraph:
    """Materialize the scheduling graph (within the brute-force cap).

    A 2T-window constraint inside one half is a time-shifted T-window
    constraint, which both vertices already satisfy, so only the masks
    crossing the boundary decide an edge.  Those active under ``a`` forbid
    single right bits (OR-ed into one mask) or, for hyperedges, right
    sets; blocks with equal forbidden sets share one successor tuple.

    The crossing masks read ``a`` only on ``lsupport``, the OR of their
    left halves, and ``b`` only on ``rsupport``, the OR of their right
    halves.  So a row's key is computed once per left projection
    ``a & lsupport``, and its successor test runs once per right
    projection ``b & rsupport``.
    """
    # The cap goes first: the doubled window's masks alone grow as (|L|·T)².
    check_int("window length", T, 1)
    check_bits(len(network.links) * T)
    single = build_window(network, T)
    double = build_window(network, 2 * T)
    nbits = single.nbits
    vertices = tuple(single.independent_sets())
    crossing = [
        (left, right)
        for left, right in (split_pair(m, nbits) for m in double.masks)
        if left and right
    ]
    lsupport = rsupport = 0
    for left, right in crossing:
        lsupport |= left
        rsupport |= right
    right_of = [b & rsupport for b in vertices]
    rights = set(right_of)
    rows: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    by_left: dict[int, tuple[int, ...]] = {}
    adjacency = {}
    for a in vertices:
        s = a & lsupport
        row = by_left.get(s)
        if row is None:
            forbidden = 0
            residual = set()
            for left, right in crossing:
                if s & left == left:
                    if right & (right - 1):
                        residual.add(right)
                    else:
                        forbidden |= right
            key = (forbidden, tuple(sorted(residual)))
            row = rows.get(key)
            if row is None:
                allowed = {
                    r for r in rights
                    if not r & forbidden and all(r & x != x for x in key[1])
                }
                row = rows[key] = tuple(
                    compress(vertices, map(allowed.__contains__, right_of))
                )
            by_left[s] = row
        adjacency[a] = row
    return SchedulingGraph(vertices, adjacency)


def build_maximal(network: Network, T: int) -> MaximalEdgeGraph:
    """Compute the maximal edges via the doubled window's maximal sets."""
    check_int("window length", T, 1)
    double = build_window(network, 2 * T)
    nbits = len(network.links) * T
    # Sorted masks split into sorted pairs: the left block is the high half.
    pairs = tuple(split_pair(m, nbits) for m in double.maximal_independent_sets())
    left = tuple(sorted({a for a, _ in pairs}))
    right = tuple(sorted({b for _, b in pairs}))
    return MaximalEdgeGraph(left, right, pairs)


def schedule_is_path(network: Network, s: PeriodicSchedule, T: int) -> bool:
    """Do the schedule's consecutive T-slabs all form scheduling-graph edges?

    The slab sequence has period lcm(P, T) / T, and an active slot t lies
    in slab (t + jP) // T for each j < lcm(P, T) / P.  Every mask holds
    its link's own bit, and the masks inside the right half are those of
    the left half shifted, so a pair whose left slab is all zero is an
    edge iff its right slab is a vertex, which the pair starting at that
    slab checks.  So only pairs starting at a busy slab are checked, and
    a schedule with no active slot is a path: the cost is per active
    slot, not per slot of the period.  The schedule must have one row per
    link of the network, else ValueError before any window is built.
    """
    num_links = len(network.links)
    check_int("window length", T, 1)
    check_rows(s, num_links)
    double = build_window(network, 2 * T)
    lcm = math.lcm(s.period, T)
    starts = {(t + j) // T for row in s.rows for t in row for j in range(0, lcm, s.period)}
    return all(double.is_independent(join_pair(s.slab(T, k), s.slab(T, k + 1), num_links * T))
               for k in starts)
