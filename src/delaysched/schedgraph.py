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
from typing import Mapping

from .network import Network
from .schedule import PeriodicSchedule
from .window import build_window, join_pair, split_pair

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
    return build_window(network, T).is_independent(block)


def has_edge(network: Network, a: int, b: int, T: int) -> bool:
    pair = join_pair(a, b, len(network.links) * T)
    return build_window(network, 2 * T).is_independent(pair)


def build(network: Network, T: int) -> SchedulingGraph:
    """Materialize the scheduling graph (within the brute-force cap).

    A 2T-window constraint inside one half is a time-shifted T-window
    constraint, which both vertices already satisfy, so only the masks
    crossing the boundary decide an edge.  Those active under ``a`` forbid
    single right bits (OR-ed into one mask) or, for hyperedges, right
    sets; blocks with equal forbidden sets share one successor tuple.
    """
    single = build_window(network, T)
    double = build_window(network, 2 * T)
    nbits = single.nbits
    vertices = tuple(single.independent_sets())
    crossing = [
        (left, right)
        for left, right in (split_pair(m, nbits) for m in double.masks)
        if left and right
    ]
    rows: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    adjacency = {}
    for a in vertices:
        forbidden = 0
        residual = set()
        for left, right in crossing:
            if a & left == left:
                if right & (right - 1):
                    residual.add(right)
                else:
                    forbidden |= right
        key = (forbidden, tuple(sorted(residual)))
        row = rows.get(key)
        if row is None:
            row = rows[key] = tuple(
                b for b in vertices
                if not b & forbidden and all(b & r != r for r in key[1])
            )
        adjacency[a] = row
    return SchedulingGraph(vertices, adjacency)


def build_maximal(network: Network, T: int) -> MaximalEdgeGraph:
    """Compute the maximal edges via the doubled window's maximal sets."""
    double = build_window(network, 2 * T)
    nbits = len(network.links) * T
    pairs = sorted(split_pair(m, nbits) for m in double.maximal_independent_sets())
    left = tuple(sorted({a for a, _ in pairs}))
    right = tuple(sorted({b for _, b in pairs}))
    return MaximalEdgeGraph(left, right, tuple(pairs))


def schedule_is_path(network: Network, s: PeriodicSchedule, T: int) -> bool:
    """Do the schedule's consecutive T-slabs all form scheduling-graph edges?

    The slab sequence has period lcm(P, T) / T, so checking one full slab
    period covers the whole schedule.
    """
    double = build_window(network, 2 * T)
    num_links = len(network.links)
    nbits = num_links * T
    slabs = math.lcm(s.period, T) // T
    for k in range(slabs):
        a = s.slab(T, k, num_links)
        b = s.slab(T, k + 1, num_links)
        if not double.is_independent(join_pair(a, b, nbits)):
            return False
    return True
