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
from math import lcm
from typing import Iterable, Iterator, Sequence

from .network import Network
from .schedgraph import MaximalEdgeGraph, SchedulingGraph, build_maximal
from .window import link_row_masks

__all__ = [
    "CycleSearchResult",
    "LayeredGraph",
    "dominates",
    "cycle_dominates",
    "canonical_cycle",
    "closed_path_rate",
    "rate_numerators",
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
    """Rotate a closed block sequence so the smallest block comes first.

    A tuple that already starts with its smallest block is returned as is.
    """
    if cycle[0] != cycle[-1]:
        raise ValueError("cycle is not closed")
    if type(cycle) is tuple and len(cycle) > 1 and cycle[0] == min(cycle):
        return cycle
    interior = tuple(cycle[:-1])
    shift = interior.index(min(interior))
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


def rate_numerators(
    paths: Sequence[Sequence[int]], T: int, num_links: int
) -> tuple[list[tuple[int, ...]], int]:
    """Rates of closed block paths as integer vectors over one denominator.

    The rate of ``paths[i]`` is ``numerators[i] / den`` component-wise,
    with ``den = lcm(path lengths) * T``, so integer comparisons order the
    rates exactly as their fractions.
    """
    if any(len(p) < 2 or p[0] != p[-1] for p in paths):
        raise ValueError("path is not closed")
    masks = link_row_masks(num_links, T)
    period = lcm(*(len(p) - 1 for p in paths))
    numerators = []
    for p in paths:
        scale = period // (len(p) - 1)
        numerators.append(tuple(
            scale * sum((block & m).bit_count() for block in p[:-1]) for m in masks
        ))
    return numerators, period * T


def closed_path_rate(path: Sequence[int], T: int, num_links: int) -> tuple[Fraction, ...]:
    """Per-link average activation per timeslot of a closed block path."""
    (numerator,), den = rate_numerators([path], T, num_links)
    return tuple(Fraction(c, den) for c in numerator)


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
    without the blocking sets).  A block closes a cycle when the root is in
    its row, so a row is only walked to extend the path, and only past the
    root: that part is taken once per row and root.  Cycles come out
    canonically rotated and sorted.  The budget is checked on every step;
    a search it stops is flagged incomplete.
    """
    if max_len is None:
        max_len = len(graph.vertices)
    elif max_len < 0:
        raise ValueError("max_len must be >= 0")
    adj = graph.adjacency
    expired = _Deadline(budget).expired
    found: list[tuple[int, ...]] = []
    for root in graph.vertices if max_len else ():
        if expired():
            return CycleSearchResult(tuple(sorted(found)), False)
        if root in adj[root]:
            found.append((root, root))
        if max_len < 2:
            continue
        # Rows are shared between blocks; each one's part past the root
        # is kept under the row's id while this root's search runs.
        row = adj[root]
        above = {id(row): tuple(b for b in row if b > root)}
        path = [root]
        on_path = {root}
        stack = [iter(above[id(row)])]
        while stack:
            if expired():
                return CycleSearchResult(tuple(sorted(found)), False)
            for nxt in stack[-1]:
                if nxt in on_path:
                    continue
                row = adj[nxt]
                if root in row:
                    found.append((*path, nxt, root))
                if len(path) + 1 < max_len:
                    succ = above.get(id(row))
                    if succ is None:
                        succ = above[id(row)] = tuple(b for b in row if b > root)
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return CycleSearchResult(tuple(sorted(found)), True)


def path_to_cycles(path: Sequence[int]) -> set[tuple[int, ...]]:
    """All cycles dominated by a block path, duplicates resolved bit-by-bit.

    The wrap block is the AND of the path's endpoints.  Whenever two blocks
    coincide, one activation bit of one copy is cleared per branch; flags
    keep later branches from re-clearing a bit already explored.  Every
    maximal cycle of the path's length that the path dominates appears in
    the output (dominated cycles may appear alongside).  Pairwise distinct
    blocks are already the one cycle; more blocks than the submasks of
    their OR can hold no pairwise distinct sub-blocks, so no cycle.
    """
    if len(path) < 2:
        raise ValueError("path must have length >= 1")
    first = path[0] & path[-1]
    blocks = [first, *path[1:-1]]
    if len(set(blocks)) == len(blocks):
        return {(*blocks, first)}
    union = 0
    for b in blocks:
        union |= b
    if len(blocks) > 1 << union.bit_count():
        return set()
    out: set[tuple[int, ...]] = set()
    _distinct(blocks, [0] * len(blocks), out)
    return out


def _distinct(blocks: list[int], flags: list[int], out: set[tuple[int, ...]]) -> None:
    stack = [(blocks, flags)]
    while stack:
        blocks, flags = stack.pop()
        # The first duplicate pair: least j, then its next occurrence i.
        # Each branch clears one bit and sees the flags of the branches before it.
        first: dict[int, int] = {}
        pair = None
        for i, b in enumerate(blocks):
            j = first.setdefault(b, i)
            if j != i and (pair is None or j < pair[0]):
                pair = (j, i)
        if pair is None:
            out.add((*blocks, blocks[0]))
            continue
        for h in pair:
            free = blocks[h] & ~flags[h]
            while free:
                low = free & -free
                branch = list(blocks)
                branch[h] ^= low
                stack.append((branch, list(flags)))
                flags[h] |= low
                free ^= low


@dataclass(frozen=True)
class LayeredGraph:
    """(k+1)-partite cover of the maximal length-k paths.

    ``layer_edges`` holds the edge sets between consecutive layers; for
    k = 1 this is just the maximal edge set itself.
    """

    left: tuple[int, ...]
    mids: tuple[int, ...]
    right: tuple[int, ...]
    layer_edges: tuple[tuple[tuple[int, int], ...], ...]


def _next_layer(
    uprime_prev: Iterable[tuple[int, int]],
    estar: Iterable[tuple[int, int]],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """One recursion step: AND middles, keep per-(outer, outer) maxima.

    The middles of an outer pair (a, c) are the ANDs b & b' of a's
    successors b in U' and c's predecessors b' in E*.  They are taken by
    decreasing popcount, so a strict superset of a middle comes before it;
    a middle is kept unless a kept one covers it, which leaves exactly the
    maximal ones.
    """
    lefts: dict[int, set[int]] = defaultdict(set)
    for a, b in uprime_prev:
        lefts[a].add(b)
    rights: dict[int, set[int]] = defaultdict(set)
    for bp, c in estar:
        rights[c].add(bp)
    u_new = set()
    uprime_new = set()
    for a, bs in lefts.items():
        for c, bps in rights.items():
            mids = {b & bp for b in bs for bp in bps}
            kept: list[int] = []
            for m in sorted(mids, key=int.bit_count, reverse=True):
                for k in kept:
                    if k & m == m:
                        break
                else:
                    kept.append(m)
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
    *_, (_k, u_list, uprime) = _layer_chain(maximal.edges, k)
    return LayeredGraph(maximal.left, mids, maximal.right, u_list + (uprime,))


def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
    return {a: tuple(sorted(bs)) for a, bs in adj.items()}


def _iter_edge_paths(adjs: Sequence[dict[int, tuple[int, ...]]]) -> Iterator[tuple[int, ...]]:
    """Paths through consecutive adjacencies, depth first, successors ascending."""
    last = len(adjs)
    for start in sorted(adjs[0]):
        path = [start]
        stack = [iter(adjs[0][start])]
        while stack:
            if len(stack) == last:
                for nxt in stack.pop():
                    yield (*path, nxt)
                path.pop()
                continue
            for nxt in stack[-1]:
                path.append(nxt)
                stack.append(iter(adjs[len(stack)].get(nxt, ())))
                break
            else:
                stack.pop()
                path.pop()


def iter_layered_paths(layered: LayeredGraph) -> Iterator[tuple[int, ...]]:
    """All length-k paths through the layer edge sets, depth first."""
    yield from _iter_edge_paths([_adjacency(edges) for edges in layered.layer_edges])


def count_layered_paths(layered: LayeredGraph) -> int:
    counts: dict[int, int] = defaultdict(lambda: 1)
    for edges in reversed(layered.layer_edges):
        nxt: dict[int, int] = defaultdict(int)
        for a, b in edges:
            nxt[a] += counts[b]
        counts = defaultdict(int, nxt)
    return sum(counts.values())


def _retain_maximal(cycles: Iterable[tuple[int, ...]], nbits: int) -> list[tuple[int, ...]]:
    """Drop cycles dominated, up to rotation, by another of the same length.

    Cycles are taken by decreasing total activation (a dominator never has
    fewer set bits), then as tuples; each is kept unless a rotation of a
    kept one covers it.  Mutual domination means rotation equality, so the
    first of each rotation class wins.  Every rotation of a kept cycle gets
    one bit, and the cover masks are bit-sliced (O'Neil & Quass, SIGMOD
    1997): bit ``r`` of ``cover[i][x]`` is set when kept rotation ``r`` has
    bit ``x`` in its block ``i``.  A candidate is covered iff the AND of the
    masks of its set bits is nonzero, so no candidate is rotated or packed.
    """
    by_len: dict[int, set[tuple[int, ...]]] = defaultdict(set)
    for c in cycles:
        by_len[len(c)].add(c)
    out: list[tuple[int, ...]] = []
    for size, group in by_len.items():
        k = size - 1
        bits = {
            b: tuple(x for x in range(b.bit_length()) if b >> x & 1)
            for b in {b for c in group for b in c}
        }
        cover = [[0] * nbits for _ in range(k)]
        kept = 0  # one set bit per kept rotation
        for c in sorted(group, key=lambda c: (c[0].bit_count() - sum(map(int.bit_count, c)), c)):
            acc = kept
            for row, b in zip(cover, c):
                for x in bits[b]:
                    acc &= row[x]
                if not acc:
                    out.append(c)
                    for s in range(k):
                        rot = kept + 1
                        kept |= rot
                        for i, row in enumerate(cover):
                            for x in bits[c[(i + s) % k]]:
                                row[x] |= rot
                    break
    return sorted(out)


def _search(network: Network, T: int, layer_seqs, budget: float | None) -> CycleSearchResult:
    """Extract cycles from every path of each chain of adjacencies, then retain.

    ``layer_seqs`` yields one chain per cycle length, shortest first, and
    the budget is checked before each path, so a cut run holds every
    shorter length in full.
    """
    expired = None if budget is None else _Deadline(budget).expired
    found: set[tuple[int, ...]] = set()
    complete = True
    for adjs in layer_seqs:
        for path in _iter_edge_paths(adjs):
            if expired and expired():
                complete = False
                break
            found.update(map(canonical_cycle, path_to_cycles(path)))
        if not complete:
            break
    return CycleSearchResult(tuple(_retain_maximal(found, len(network.links) * T)), complete)


def algorithm_a(
    network: Network,
    T: int,
    k_max: int,
    budget: float | None = None,
) -> CycleSearchResult:
    """Incremental maximal-cycle search, one cycle length at a time.

    For each k the layered cover of the maximal length-k paths is built
    and every path feeds the cycle extraction; retained cycles are the
    dominance-maximal ones per length.  Every maximal cycle of length at
    most ``k_max`` is dominated by some retained cycle.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    estar = build_maximal(network, T).edges

    def chain():
        # Each length adds U_{k-2} and U'_{k-1}; earlier rows are reused.
        u_rows = []
        for k, u_list, uprime in _layer_chain(estar, k_max):
            if k > 1:
                u_rows.append(_adjacency(u_list[-1]))
            yield u_rows + [_adjacency(uprime)]

    return _search(network, T, chain(), budget)


def algorithm_b(
    network: Network,
    T: int,
    k_max: int,
    budget: float | None = None,
) -> CycleSearchResult:
    """Cycle search over every path of the maximal-edge graph.

    The paths of 1 to ``k_max`` edges feed the cycle extraction, shortest
    length first; retained cycles are the dominance-maximal ones per length.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rows = _adjacency(build_maximal(network, T).edges)
    return _search(network, T, ([rows] * k for k in range(1, k_max + 1)), budget)


def pareto_filter(
    cycles: Iterable[tuple[int, ...]],
    T: int,
    num_links: int,
) -> list[tuple[int, ...]]:
    """Keep cycles whose rate vectors are not strictly dominated.

    Distinct integer rate numerators are taken by decreasing sum; one is
    dominated iff an earlier undominated one covers it.  Cycles sharing a
    maximal rate vector are all retained, so every surviving vector keeps
    its witnesses retrievable.
    """
    items = sorted(set(cycles))
    numerators, _ = rate_numerators(items, T, num_links)
    maximal = set(_pareto_front(numerators))
    return [c for c, r in zip(items, numerators) if r in maximal]


def _pareto_front(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct vectors that no other one strictly dominates.

    Taken by decreasing sum, a vector is dominated iff an earlier kept one
    covers it: a dominator has a larger sum, and is itself kept or covered
    by a kept one.
    """
    front: list[tuple[int, ...]] = []
    for r in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(x >= y for x, y in zip(f, r)) for f in front):
            front.append(r)
    return front
