"""Cycle machinery over scheduling graphs.

Feasibility of block sequences is downward closed under the component-wise
partial order, so the rate region is generated by dominance-maximal cycles
alone.  This module provides the Johnson baseline over a materialized
graph, the recursive extraction of cycles dominated by a path, the layered
construction whose length-k paths cover all maximal length-k paths, and
the two enumeration strategies built from those pieces.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .network import Network
from .schedgraph import MaximalEdgeGraph, SchedulingGraph, build_maximal
from .window import bit_position

__all__ = [
    "CycleSearchResult",
    "LayeredGraph",
    "dominates",
    "cycle_dominates",
    "canonical_cycle",
    "closed_path_rate",
    "johnson_cycles",
    "path_to_cycles",
    "build_layered",
    "iter_layered_paths",
    "count_layered_paths",
    "algorithm_a",
    "algorithm_b",
    "pareto_filter",
]


@dataclass(frozen=True)
class CycleSearchResult:
    """Cycles found by an enumeration, with a truncation marker."""

    cycles: tuple[tuple[int, ...], ...]
    complete: bool


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Component-wise >= on equal-length block sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x & y == y for x, y in zip(a, b))


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a closed block sequence so the smallest block comes first."""
    if cycle[0] != cycle[-1]:
        raise ValueError("cycle is not closed")
    interior = tuple(cycle[:-1])
    k = len(interior)
    shift = min(range(k), key=lambda i: interior[i])
    rotated = interior[shift:] + interior[:shift]
    return rotated + (rotated[0],)


def cycle_dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Closed-path dominance up to rotation (same length only)."""
    if len(a) != len(b):
        return False
    ia, ib = tuple(a[:-1]), tuple(b[:-1])
    k = len(ib)
    return any(
        all(x & y == y for x, y in zip(ia, ib[r:] + ib[:r])) for r in range(k)
    )


def closed_path_rate(path: Sequence[int], T: int, num_links: int) -> tuple[Fraction, ...]:
    """Per-link average activation per timeslot of a closed block path."""
    if len(path) < 2 or path[0] != path[-1]:
        raise ValueError("path is not closed")
    k = len(path) - 1
    counts = [0] * num_links
    for block in path[:-1]:
        for l in range(num_links):
            counts[l] += sum(
                block >> bit_position(l, t, num_links, T) & 1 for t in range(T)
            )
    return tuple(Fraction(c, k * T) for c in counts)


class _Deadline:
    def __init__(self, budget: float | None):
        self.at = None if budget is None else time.monotonic() + budget

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at


def johnson_cycles(
    graph: SchedulingGraph,
    max_len: int | None = None,
    budget: float | None = None,
) -> CycleSearchResult:
    """Enumerate elementary cycles of a materialized scheduling graph.

    Each cycle is found once, from its least block: the search from a root
    extends only through larger blocks not already on the path, and a path
    holds at most ``max_len`` blocks (Johnson, SIAM J. Comput. 4(1), 1975,
    without the blocking sets).  Cycles come out canonically rotated and
    sorted.  The budget is checked on every step; a search it stops is
    flagged incomplete.
    """
    if max_len is None:
        max_len = len(graph.vertices)
    elif max_len < 0:
        raise ValueError("max_len must be >= 0")
    adj = graph.adjacency
    expired = _Deadline(budget).expired
    found: list[tuple[int, ...]] = []
    for root in graph.vertices if max_len else ():
        path = [root]
        stack = [iter(adj[root])]
        while stack:
            if expired():
                return CycleSearchResult(tuple(sorted(found)), False)
            for nxt in stack[-1]:
                if nxt == root:
                    found.append((*path, root))
                elif nxt > root and len(path) < max_len and nxt not in path:
                    path.append(nxt)
                    stack.append(iter(adj[nxt]))
                    break
            else:
                stack.pop()
                path.pop()
    return CycleSearchResult(tuple(sorted(found)), True)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def path_to_cycles(path: Sequence[int]) -> set[tuple[int, ...]]:
    """All cycles dominated by a block path, duplicates resolved bit-by-bit.

    The wrap block is the AND of the path's endpoints.  Whenever two blocks
    coincide, one activation bit of one copy is cleared per branch; flags
    keep later branches from re-clearing a bit already explored.  Every
    maximal cycle of the path's length that the path dominates appears in
    the output (dominated cycles may appear alongside).
    """
    if len(path) < 2:
        raise ValueError("path must have length >= 1")
    out: set[tuple[int, ...]] = set()
    first = path[0] & path[-1]
    _distinct([first, *path[1:-1]], [0] * (len(path) - 1), out)
    return out


def _distinct(blocks: list[int], flags: list[int], out: set[tuple[int, ...]]) -> None:
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
        for x in _iter_bits(blocks[h] & ~flags[h]):
            branch = list(blocks)
            branch[h] = blocks[h] & ~(1 << x)
            _distinct(branch, list(flags), out)
            flags[h] |= 1 << x


@dataclass(frozen=True)
class LayeredGraph:
    """(k+1)-partite cover of the maximal length-k paths.

    ``layer_edges`` holds the edge sets between consecutive layers; for
    k = 1 this is just the maximal edge set itself.
    """

    network: Network
    T: int
    k: int
    left: tuple[int, ...]
    mids: tuple[int, ...]
    right: tuple[int, ...]
    layer_edges: tuple[tuple[tuple[int, int], ...], ...]


def _next_layer(
    uprime_prev: Iterable[tuple[int, int]],
    estar: Iterable[tuple[int, int]],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """One recursion step: AND middles, keep per-(outer, outer) maxima."""
    by_outer: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a, b in uprime_prev:
        for bp, c in estar:
            by_outer[(a, c)].add(b & bp)
    u_new = set()
    uprime_new = set()
    for (a, c), mids in by_outer.items():
        for m in mids:
            if any(m2 != m and m2 & m == m for m2 in mids):
                continue
            u_new.add((a, m))
            uprime_new.add((m, c))
    return tuple(sorted(u_new)), tuple(sorted(uprime_new))


def _layer_chain(estar: tuple[tuple[int, int], ...], k_max: int):
    """Yield (k, edge sets U_0..U_{k-2}, U'_{k-1}) for k = 1..k_max."""
    u_list: list[tuple[tuple[int, int], ...]] = []
    uprime = estar
    for k in range(1, k_max + 1):
        if k > 1:
            u_new, uprime = _next_layer(uprime, estar)
            u_list.append(u_new)
        yield k, tuple(u_list), uprime


def build_layered(
    network: Network,
    T: int,
    k: int,
    maximal: MaximalEdgeGraph | None = None,
) -> LayeredGraph:
    if k < 1:
        raise ValueError("k must be >= 1")
    maximal = maximal or build_maximal(network, T)
    mids = tuple(sorted({b & bp for b in maximal.right for bp in maximal.left}))
    for kk, u_list, uprime in _layer_chain(maximal.edges, k):
        if kk == k:
            return LayeredGraph(
                network, T, k, maximal.left, mids, maximal.right,
                tuple(u_list) + (uprime,),
            )
    raise AssertionError("unreachable")


def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
    return {a: tuple(sorted(bs)) for a, bs in adj.items()}


def _iter_edge_paths(layer_edges) -> Iterator[tuple[int, ...]]:
    adjs = [_adjacency(edges) for edges in layer_edges]

    def walk(prefix: tuple[int, ...], depth: int) -> Iterator[tuple[int, ...]]:
        if depth == len(adjs):
            yield prefix
            return
        for nxt in adjs[depth].get(prefix[-1], ()):
            yield from walk(prefix + (nxt,), depth + 1)

    for start in sorted(set(a for a, _ in layer_edges[0])):
        yield from walk((start,), 0)


def iter_layered_paths(layered: LayeredGraph) -> Iterator[tuple[int, ...]]:
    """All length-k paths through the layer edge sets, depth first."""
    yield from _iter_edge_paths(layered.layer_edges)


def count_layered_paths(layered: LayeredGraph) -> int:
    counts: dict[int, int] = defaultdict(lambda: 1)
    for edges in reversed(layered.layer_edges):
        nxt: dict[int, int] = defaultdict(int)
        for a, b in edges:
            nxt[a] += counts[b]
        counts = defaultdict(int, nxt)
    return sum(counts.values())


def _retain_maximal(cycles: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Drop cycles strictly dominated by another of the same length.

    Mutual domination forces equality, so after deduplication it suffices
    to test each cycle against the already-kept ones in decreasing total
    activation order (a dominator never has fewer set bits).
    """
    by_len: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for c in cycles:
        by_len[len(c)].append(c)
    out: list[tuple[int, ...]] = []
    for group in by_len.values():
        items = sorted(
            set(group),
            key=lambda c: (-sum(b.bit_count() for b in c[:-1]), c),
        )
        kept: list[tuple[int, ...]] = []
        for c in items:
            if not any(cycle_dominates(k, c) for k in kept):
                kept.append(c)
        out.extend(kept)
    return sorted(out)


def algorithm_a(
    network: Network,
    T: int,
    k_max: int,
    budget: float | None = None,
    maximal: MaximalEdgeGraph | None = None,
) -> CycleSearchResult:
    """Incremental maximal-cycle search, one cycle length at a time.

    For each k the layered cover of the maximal length-k paths is built
    and every path feeds the cycle extraction; retained cycles are the
    dominance-maximal ones per length.  Every maximal cycle of length at
    most ``k_max`` is dominated by some retained cycle.
    """
    maximal = maximal or build_maximal(network, T)
    deadline = _Deadline(budget)
    found: set[tuple[int, ...]] = set()
    complete = True
    for _k, u_list, uprime in _layer_chain(maximal.edges, max(k_max, 0)):
        for path in _iter_edge_paths(tuple(u_list) + (uprime,)):
            if deadline.expired():
                complete = False
                break
            for cyc in path_to_cycles(path):
                found.add(canonical_cycle(cyc))
        if not complete:
            break
    return CycleSearchResult(tuple(_retain_maximal(found)), complete)


def algorithm_b(
    network: Network,
    T: int,
    k_max: int,
    budget: float | None = None,
    maximal: MaximalEdgeGraph | None = None,
) -> CycleSearchResult:
    """Cycle search over paths of the maximal-edge graph up to ``k_max``."""
    maximal = maximal or build_maximal(network, T)
    adj = _adjacency(maximal.edges)
    deadline = _Deadline(budget)
    found: set[tuple[int, ...]] = set()
    complete = True

    def expand(path: tuple[int, ...]) -> bool:
        if deadline.expired():
            return False
        if len(path) >= 2:
            for cyc in path_to_cycles(path):
                found.add(canonical_cycle(cyc))
        if len(path) - 1 >= k_max:
            return True
        for nxt in adj.get(path[-1], ()):
            if not expand(path + (nxt,)):
                return False
        return True

    for start in sorted(adj):
        if not expand((start,)):
            complete = False
            break
    return CycleSearchResult(tuple(_retain_maximal(found)), complete)


def pareto_filter(
    cycles: Iterable[tuple[int, ...]],
    T: int,
    num_links: int,
) -> list[tuple[int, ...]]:
    """Keep cycles whose rate vectors are not strictly dominated.

    Cycles sharing a maximal rate vector are all retained, so every
    surviving vector keeps its witnesses retrievable.
    """
    items = [(c, closed_path_rate(c, T, num_links)) for c in sorted(set(cycles))]
    rates = [r for _, r in items]
    kept = []
    for c, r in items:
        if any(
            r2 != r and all(x >= y for x, y in zip(r2, r)) for r2 in rates
        ):
            continue
        kept.append(c)
    return kept
