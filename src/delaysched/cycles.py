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
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, product
from math import lcm
from numbers import Real
from operator import eq

from .network import Network
from .schedgraph import SchedulingGraph, build_maximal
from .window import check_block, check_closed, check_int, link_row_masks

__all__ = [
    "CycleSearchResult",
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

# Successor rows of an edge set: block -> its successors, keys and rows ascending.
Rows = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class CycleSearchResult:
    """Cycles found by an enumeration, with a truncation marker.

    ``algorithm_a`` and ``algorithm_b`` return a tuple; ``johnson_cycles``
    returns its cycles grouped by head (``_GroupedCycles``), a sequence
    that reads as that tuple.
    """

    cycles: Sequence[tuple[int, ...]]
    complete: bool


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Component-wise >= on equal-length block sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x & y == y for x, y in zip(a, b))


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a closed block path so the smallest block comes first.

    A sequence that is not closed raises ValueError (``check_closed``).
    """
    check_closed("cycle", cycle)
    return _rotations(tuple(cycle[1:-1]), [cycle[0]])[0]


def cycle_dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Closed-path dominance up to rotation (same length only)."""
    if len(a) != len(b):
        return False
    ia, ib = tuple(a[:-1]), tuple(b[:-1])
    k = len(ib)
    return any(
        all(x & y == y for x, y in zip(ia, ib[r:] + ib[:r])) for r in range(k)
    )


def _packed_rates(
    paths: Sequence[Sequence[int]], T: int, num_links: int
) -> tuple[list[int], int, int]:
    """Each closed path's rate numerators over one denominator, packed into one int.

    Returns the packed numerators, ``den = lcm(path lengths) * T`` and the
    field width ``den.bit_length() + 1``: one field per link, link 0
    lowest.  A path's scaled count is at most ``den`` on every link, so no
    field carries into the next and each field's top bit, its guard, is
    clear.  A ``T`` that is not a window length (``check_int``), a path
    that is not closed, or a block outside the ``num_links x T`` window,
    raises ValueError (``check_closed``, ``check_block``).
    """
    check_int("window length", T, 1)
    paths = tuple(paths)  # read four times: grouped cycles are expanded once
    for p in paths:
        check_closed("path", p)
    blocks = {b for p in paths for b in p}
    for block in blocks:
        check_block(block, num_links, T)
    masks = link_row_masks(num_links, T)
    lengths = {len(p) for p in paths}
    period = lcm(*(n - 1 for n in lengths))
    width = (period * T).bit_length() + 1
    packed: dict[int, int] = {}
    for block in blocks:
        fields = 0
        for m in reversed(masks):
            fields = fields << width | (block & m).bit_count()
        packed[block] = fields
    get = packed.__getitem__
    scale = {n: period // (n - 1) for n in lengths}
    rates = [(sum(map(get, p)) - get(p[0])) * scale[len(p)] for p in paths]
    return rates, period * T, width


def rate_numerators(
    paths: Sequence[Sequence[int]], T: int, num_links: int
) -> tuple[list[tuple[int, ...]], int]:
    """Rates of closed block paths as integer vectors over one denominator.

    The rate of ``paths[i]`` is ``numerators[i] / den`` component-wise,
    with ``den = lcm(path lengths) * T``, so integer comparisons order the
    rates exactly as their fractions.  A path's numerators are the fields
    of the one int ``_packed_rates`` packs for it, the form
    ``pareto_filter`` compares, unpacked link by link.  A path that is not
    closed, a ``T`` that is not a window length, or a block outside the
    window, raises ValueError.
    """
    rates, den, width = _packed_rates(paths, T, num_links)
    field = (1 << width) - 1
    shifts = range(0, width * num_links, width)
    return [tuple([r >> s & field for s in shifts]) for r in rates], den


def closed_path_rate(path: Sequence[int], T: int, num_links: int) -> tuple[Fraction, ...]:
    """Per-link average activation per timeslot of a closed block path.

    A ``T`` that is not an int >= 1, a path that is not closed, or a block
    with a bit outside the ``num_links * T`` bits of a T-window, raises
    ValueError (``rate_numerators``).
    """
    (numerator,), den = rate_numerators([path], T, num_links)
    return tuple(Fraction(c, den) for c in numerator)


def _stop_check(budget: float | None):
    """A search's stop check, started now: None without a budget."""
    if budget is None:
        return None
    if type(budget) is bool or not isinstance(budget, Real) or not budget >= 0:
        raise ValueError(f"budget must be a non-negative number of seconds, got {budget!r}")
    at = time.monotonic() + budget
    return lambda: time.monotonic() > at


def johnson_cycles(
    graph: SchedulingGraph,
    max_len: int | None = None,
    budget: float | None = None,
) -> CycleSearchResult:
    """Enumerate elementary cycles of a materialized scheduling graph.

    Each cycle is found once, from its least block: the search from a root
    extends only through larger blocks not already on the path, and a path
    holds at most ``max_len`` blocks (Johnson, SIAM J. Comput. 4(1), 1975,
    without the blocking sets).  The walk runs on indices into the graph's
    blocks sorted once, over index rows sorted once per distinct row, so
    cycles come out canonically rotated and sorted as they are found.  The
    search from a root is one walk whose first step visits the root
    itself.  A visited block closes a cycle when the root is in its row,
    so a row is only walked to extend the path, and only past the root.
    Per root, each row is read once into one record: whether it holds the
    root, its part past the root, and its closers, the blocks of that part
    whose own row holds the root, numbered once in a table of closer
    lists.  The cycles are kept as groups, each one head (the path and
    the visited block) and no cycle object: the head's own cycle when the
    root is in the visited block's row, and, for a block that takes the
    path's last place, one cycle per closer of its row not on the head.
    Such a block is not walked; its group's size is its closers less the
    head blocks among them, one bisect each, and a group of size 0 is
    not kept.  The budget is checked once per step of the walk (a step
    runs until it goes down one block or its frame runs out), the root's
    own step included; a search it stops is flagged incomplete.  The
    cycles are returned grouped (``_GroupedCycles``).
    """
    max_len = len(graph.vertices) if max_len is None else check_int("max_len", max_len, 0)
    expired = _stop_check(budget)
    blocks = tuple(sorted(graph.vertices))
    index = {b: i for i, b in enumerate(blocks)}
    # Each distinct row in order of first use, under its id; its number is
    # its place in that order, and it is walked as its sorted indices.
    distinct = {id(row): row for row in map(graph.adjacency.__getitem__, blocks)}
    numbers = {key: k for k, key in enumerate(distinct)}
    kind = [numbers[id(graph.adjacency[b])] for b in blocks]  # each block's row number
    rows = [tuple(sorted(map(index.__getitem__, row))) for row in distinct.values()]
    # Each group's head (from its root), closer list number and size in
    # turn, and every closer list in order of its number.
    groups, closers = [], []
    complete = True
    inner = max_len - 2  # the path length at which a visit closes through closers
    for root in range(len(blocks)) if max_len else ():
        # This root's record of each row (``_record``), under the row's number.
        records: list[list | None] = [None] * len(rows)
        path: list[int] = []
        on_path: set[int] = set()
        stack = [(root,)]  # the root's own frame, walked once
        while True:
            if expired and expired():
                complete = False
                break
            depth = len(path)
            for nxt in stack[-1]:
                if nxt in on_path:
                    continue
                k = kind[nxt]
                rec = records[k] or _record(records, k, root in rows[k])
                if rec[0]:
                    groups += (*path, nxt), -1, 1
                if depth > inner:  # max_len 1: the root's self-loop only
                    continue
                succ = rec[1]
                if succ is None:
                    row = rows[k]
                    succ = rec[1] = row[bisect_right(row, root):]
                if depth < inner:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ))
                    break
                ends = rec[2]
                if ends is None:
                    ends = rec[2] = []
                    for b in succ:
                        held = records[kind[b]] or _record(records, kind[b], root in rows[kind[b]])
                        if held[0]:
                            ends.append(b)
                    rec[3] = len(closers)
                    closers.append(ends)
                if ends:
                    head = (*path, nxt)
                    size = last = len(ends)
                    for b in head:  # closers ascend; hi keeps the index in range
                        size -= ends[bisect_left(ends, b, 0, last - 1)] == b
                    if size:
                        groups += head, rec[3], size
            else:
                if depth < 2:  # what is left is the root's own frame: the root is done
                    break
                stack.pop()
                on_path.discard(path.pop())
        if not complete:
            break
    return CycleSearchResult(_GroupedCycles(blocks, groups, closers), complete)


def _record(records: list, k: int, holds: bool) -> list:
    """A root's new record of row ``k``, stored in ``records``: [holds the
    root, part past the root, closers, their list number]."""
    rec = records[k] = [holds, None, None, None]
    return rec


def _flat(blocks: tuple[int, ...], seqs: list) -> tuple[array, array]:
    """Sequences of indices into ``blocks`` as one array of the indices (one
    byte each up to 256 blocks, two up to 65,536, four past that) and one
    of where each sequence starts, its end last (``_starts``)."""
    code = "B" if len(blocks) <= 1 << 8 else "H" if len(blocks) <= 1 << 16 else "I"
    # Bytes go into an array 2.4x faster than the array's own loop takes ints.
    flat = array(code, (bytes if code == "B" else list)(chain.from_iterable(seqs)))
    return flat, _starts(map(len, seqs), len(flat))


def _starts(lengths: Iterable[int], total: int) -> array:
    """0 and the running sums of ``lengths``, which add up to ``total``:
    four bytes each, eight from 2**32."""
    return array("I" if total < 1 << 32 else "Q", accumulate(lengths, initial=0))


class _GroupedCycles(Sequence):
    """Closed block paths held as groups that share a head, in indices into
    one table of blocks.

    Reads as the tuple of block tuples it holds: ``len``, indexing,
    slices (a tuple), iteration, ``in``, ``==`` and ``hash`` give what
    that tuple gives.  Group ``g``'s head is the blocks at
    ``heads[head_at[g]:head_at[g + 1]]``, its root first.  With list
    number -1 the group is the head's own cycle; otherwise it is the
    head, one closer of list ``lists[g]`` that is not on the head, and
    the root again, for each such closer in ascending order.  Closer list
    ``k`` is ``closers[closer_at[k]:closer_at[k + 1]]``, and the groups
    before ``g`` hold ``counts[g]`` cycles.  No per-group object is kept:
    a group costs its head's indices (one byte each up to 256 blocks) and
    four bytes each for its head start, list number and count, and a
    closer list is held once for all the groups that name it.
    """

    __slots__ = ("_blocks", "_heads", "_head_at", "_lists", "_closers", "_closer_at", "_counts")

    def __init__(self, blocks: tuple[int, ...], groups: list, closers: list[list[int]]):
        self._blocks = blocks
        self._heads, self._head_at = _flat(blocks, groups[0::3])
        self._closers, self._closer_at = _flat(blocks, closers)
        self._lists = array("i", groups[1::3])
        self._counts = _starts(groups[2::3], sum(groups[2::3]))

    def __len__(self) -> int:
        return self._counts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        i = range(len(self))[i]  # IndexError and TypeError as a tuple raises them
        g = bisect_right(self._counts, i) - 1
        return next(islice(self._expand(g, g + 1), i - self._counts[g], None))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._expand(0, len(self._lists))

    def _expand(self, g: int, stop: int) -> Iterator[tuple[int, ...]]:
        """The cycles of groups ``g`` to ``stop - 1``, in order."""
        get, at, closer_at = self._blocks.__getitem__, self._head_at, self._closer_at
        for start, end, k in zip(at[g:stop], at[g + 1:stop + 1], self._lists[g:stop]):
            ixs = self._heads[start:end]
            head = tuple(map(get, ixs))
            if k < 0:
                yield (*head, head[0])
            for c in self._closers[closer_at[k]:closer_at[k + 1]]:  # k = -1 reads [end:0]: none
                if c not in ixs:
                    yield (*head, get(c), head[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _GroupedCycles)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        shown = ", ".join(map(repr, self[:3])) + ", ..." * (len(self) > 3)
        return f"<{len(self)} cycles: {shown}>"


def path_to_cycles(
    path: Sequence[int],
    *,
    memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]] | None = None,
) -> set[tuple[int, ...]]:
    """All cycles dominated by a block path, duplicates resolved bit-by-bit.

    The wrap block is the AND of the path's endpoints.  Whenever two blocks
    coincide, one activation bit of one copy is cleared per branch; flags
    keep later branches from re-clearing a bit already explored.  Every
    maximal cycle of the path's length that the path dominates appears in
    the output (dominated cycles may appear alongside).  Pairwise distinct
    blocks are already the one cycle; more blocks than the submasks of
    their OR can hold no pairwise distinct sub-blocks, so no cycle.  A block
    tuple that repeats a block is resolved once, into ``memo`` (a fresh one
    when none is given) under the tuple; every call returns a new set.
    """
    n = len(path) - 1
    if n < 1:
        raise ValueError("path must have length >= 1")
    first = path[0] & path[-1]
    # Up to three blocks, distinctness takes at most three comparisons.
    if n == 1:
        return {(first, first)}
    if n == 2:
        if path[1] != first:
            return {(first, path[1], first)}
    elif n == 3:
        b, c = path[1], path[2]
        if b != first and c != first and b != c:
            return {(first, b, c, first)}
    blocks = (first, *path[1:-1])
    if n > 3 and len(set(blocks)) == n:
        return {(*blocks, first)}
    if memo is None:
        memo = {}
    cycles = memo.get(blocks)
    if cycles is None:
        cycles = memo[blocks] = frozenset(_distinct(blocks))
    return set(cycles)


def _distinct(blocks: Sequence[int]) -> set[tuple[int, ...]]:
    """The cycles under a block tuple that repeats a block: none when the
    blocks outnumber the submasks of their OR."""
    union = 0
    for b in blocks:
        union |= b
    out: set[tuple[int, ...]] = set()
    if len(blocks) > 1 << union.bit_count():
        return out
    stack = [(blocks, [0] * len(blocks))]
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
        # With one repeat left, a branch whose new block is not among the
        # others is pairwise distinct: a leaf, which never reads its flags.
        last = len(first) == len(blocks) - 1
        for h in pair:
            free = blocks[h] & ~flags[h]
            while free:
                low = free & -free
                branch = list(blocks)
                branch[h] ^= low
                if last and branch[h] not in first:
                    out.add((*branch, branch[0]))
                else:
                    stack.append((branch, list(flags)))
                flags[h] |= low
                free ^= low
    return out


def _rows(edges: Iterable[tuple[int, int]]) -> Rows:
    rows: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        rows[a].append(b)
    return {a: tuple(sorted(rows[a])) for a in sorted(rows)}


def _next_layer(uprime_rows: Rows, into: Rows) -> tuple[Rows, Rows]:
    """One recursion step: AND middles, keep per-(outer, outer) maxima.

    The middles of an outer pair (a, c) are the ANDs b & b' of a's
    successors b in U' and c's predecessors b' in E* (``into``); only the
    maximal ones are kept.  They depend on the two rows alone, and keys
    share few rows, so the maxima are taken once per pair of distinct rows
    and joined to every key of each row.  Returns the rows of U and of the
    next U'.
    """
    outer = _keys_by_row(uprime_rows)
    inner = _keys_by_row(into)
    mids_out: dict[tuple[int, ...], set[int]] = {bs: set() for bs in outer}
    mids_in: dict[tuple[int, ...], set[int]] = {bps: set() for bps in inner}
    for bs in outer:
        for bps in inner:
            ms = _maximal({b & bp for b in bs for bp in bps})
            mids_out[bs].update(ms)
            mids_in[bps].update(ms)
    return (
        _rows((a, m) for bs, keys in outer.items() for a in keys for m in mids_out[bs]),
        _rows((m, c) for bps, keys in inner.items() for m in mids_in[bps] for c in keys),
    )


def _keys_by_row(rows: Rows) -> dict[tuple[int, ...], list[int]]:
    keys: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for key, row in rows.items():
        keys[row].append(key)
    return keys


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks that no other one covers: the maxima of a set of
    vectors (Kung, Luccio & Preparata, JACM 1975), one bit per coordinate.

    They are taken by decreasing popcount, so a strict superset of a mask
    comes before it; a mask is kept unless a kept one covers it.  The
    order also puts the widest kept masks first in the cover loop, so a
    covered mask tends to stop at its first test.  Plain decreasing int
    order puts every dominator first too, but measured no faster.
    """
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if k & m == m:
                break
        else:
            kept.append(m)
    return kept


def _layer_chain(estar: Sequence[tuple[int, int]], k_max: int):
    """Yield the rows of U_0..U_{k-2}, U'_{k-1} for k = 1..k_max.  E*'s rows
    and predecessor rows are built once; each length adds two row sets."""
    uprime = _rows(estar)
    into = _rows((c, b) for b, c in estar)
    layers: list[Rows] = []
    for k in range(1, k_max + 1):
        if k > 1:
            u_new, uprime = _next_layer(uprime, into)
            layers.append(u_new)
        yield layers + [uprime]


def build_layered(network: Network, T: int, k: int) -> tuple[Rows, ...]:
    """(k+1)-partite cover of the maximal length-k paths.

    The successor rows between consecutive layers, keys and rows
    ascending; for k = 1 these are the maximal edge set's rows.
    """
    check_int("k", k, 1)
    *_, layers = _layer_chain(build_maximal(network, T).edges, k)
    return tuple(layers)


def iter_layered_paths(layers: Sequence[Rows]) -> Iterator[tuple[int, ...]]:
    """Paths through consecutive successor rows, depth first, ascending."""
    last = len(layers)
    for start, row in layers[0].items() if layers else ():
        path = [start]
        stack = [iter(row)]
        while stack:
            if len(stack) == last:
                for nxt in stack.pop():
                    yield (*path, nxt)
                path.pop()
                continue
            for nxt in stack[-1]:
                path.append(nxt)
                stack.append(iter(layers[len(stack)].get(nxt, ())))
                break
            else:
                stack.pop()
                path.pop()


def count_layered_paths(layers: Sequence[Rows]) -> int:
    counts: dict[int, int] = defaultdict(lambda: 1)
    for rows in reversed(layers):
        counts = defaultdict(int, {a: sum(counts[b] for b in bs) for a, bs in rows.items()})
    return sum(counts.values())


def _retain_maximal(group: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Drop the cycles of one length dominated, up to rotation, by another.

    Precondition: the group holds one canonical form per rotation class,
    as ``_search`` collects ``_rotations`` into a set and a cycle's blocks
    are pairwise distinct.  So a kept cycle can only cover a candidate of
    strictly larger total activation, and the kept set does not depend on
    the order within a total: cycles are taken by decreasing total alone,
    each kept unless a rotation of a kept one covers it.  Every rotation of
    a kept cycle gets one bit, and the cover masks are bit-sliced (O'Neil &
    Quass, SIGMOD 1997): bit ``r`` of ``cover[i][x]`` is set when kept
    rotation ``r`` has bit ``x`` in its block ``i``.  A candidate is covered
    iff the AND of the masks of its set bits is nonzero, so no candidate is
    rotated or packed.  The masks reach the group's highest set bit; none
    above it is read.
    """
    if not group:
        return []
    k = len(next(iter(group))) - 1
    bits = {
        b: tuple(x for x in range(b.bit_length()) if b >> x & 1)
        for b in {b for c in group for b in c}
    }
    cover = [[0] * max(bits).bit_length() for _ in range(k)]
    kept = 0  # one set bit per kept rotation
    out: list[tuple[int, ...]] = []
    for c in sorted(group, key=lambda c: c[0].bit_count() - sum(map(int.bit_count, c))):
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


def _rotations(mid: tuple[int, ...], wraps: Iterable[int]) -> list[tuple[int, ...]]:
    """``canonical_cycle((w, *mid, w))`` for each wrap ``w``, rotating the
    interior once: a wrap at most the interior's least block ``lo`` starts
    its cycle, and any other goes between the parts before and from the
    first ``lo``."""
    if not mid:
        return [(w, w) for w in wraps]
    lo = min(mid)
    s = mid.index(lo)
    head, tail = mid[s:], mid[:s]
    return [(w, *mid, w) if w <= lo else (*head, w, *tail, lo) for w in wraps]


def _interiors(
    layers: Sequence[Rows],
) -> Iterator[tuple[tuple[int, ...], Sequence[int], Sequence[int]]]:
    """The paths through a chain of successor rows, one interior at a time.

    Yields ``(mid, heads, tails)``: the paths through the interior
    ``mid = (p1, ..., p(k-1))`` are ``(p0, *mid, pk)`` for each p0 in
    ``heads``, the first layer's predecessors of p1, and each pk in
    ``tails``, the last layer's successors of p(k-1).  Together they are
    the paths ``iter_layered_paths(layers)`` yields, each once.  The first
    layer is indexed by successor, and each interior is walked once through
    the middle layers by ``iter_layered_paths``, so without recursion.  For
    k = 1 the interior is empty, and each first-layer row is a group of its
    own, with its key the one head.
    """
    if len(layers) == 1:
        for p0, row in layers[0].items():
            yield (), (p0,), row
        return
    heads: dict[int, list[int]] = defaultdict(list)
    for p0, row in layers[0].items():
        for p1 in row:
            heads[p1].append(p0)
    *middle, last = layers[1:]
    if middle:
        starts = {p1: row for p1, row in middle[0].items() if p1 in heads}
        mids = iter_layered_paths([starts, *middle[1:]])
    else:
        mids = ((p1,) for p1 in heads)
    for mid in mids:
        tails = last.get(mid[-1])
        if tails:
            yield mid, heads[mid[0]], tails


def _search(layer_seqs, expired) -> CycleSearchResult:
    """Extract, filter, rotate and retain the cycles of each chain of
    successor rows.

    ``layer_seqs`` yields one chain per cycle length, shortest first; each
    length is retained before the next is walked.  The stop check
    ``expired`` (None for no budget) is tested before each path, so a cut
    run retains every shorter length in full and the cut one in part.

    Every extracted cycle is ``(w, m1, ..., w)``: its wrap block ``w``
    first and last, its interior between.  Of the distinct raw cycles with
    one interior, only the maximal wraps are rotated and retained; a cycle
    whose wrap lies strictly inside another's is strictly dominated, block
    by block, so retention would drop it.  The output is the same as
    retaining every candidate: a dropped cycle's dominators include one
    with a maximal wrap, which has more set bits and so comes before it in
    retention's order, and whatever kept cycle covers that one covers the
    dropped cycle too.  A dropped cycle is never kept, so it covers nothing
    that is not covered anyway.

    A length is walked interior by interior (``_interiors``), so no set of
    a whole length's raw cycles is held.  The paths of one interior share
    a memo of their repeated-block tuples (every memo key holds the
    interior, so no hit is lost) and a set of their raw cycles.  Every raw
    cycle's wrap joins the list of its own interior, which is the walked
    one unless a repeated block had bits cleared; the walked interior's
    list is then reduced to its maximal wraps before the next interior is
    walked.  A wrap can join an interior's list after that interior was
    walked, so every list is reduced once more when the length is done.
    """
    kept: list[tuple[int, ...]] = []
    complete = True
    for layers in layer_seqs:
        wraps: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for mid, heads, tails in _interiors(layers):
            raw: set[tuple[int, ...]] = set()
            memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}
            for p0, pk in product(heads, tails):
                if expired and expired():
                    complete = False
                    break
                raw.update(path_to_cycles((p0, *mid, pk), memo=memo))
            for c in raw:
                wraps[c[1:-1]].append(c[0])
            if len(wraps.get(mid, ())) > 1:
                wraps[mid] = _maximal(wraps[mid])
            if not complete:
                break
        group = set()
        for mid, ws in wraps.items():
            if len(ws) > 1:
                ws = _maximal(ws)
            group.update(_rotations(mid, ws))
        del wraps  # freed before retention runs
        kept += _retain_maximal(group)
        if not complete:
            break
    return CycleSearchResult(tuple(sorted(kept)), complete)


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
    most ``k_max`` is dominated by some retained cycle.  The budget's
    clock starts before E* is built.
    """
    check_int("k_max", k_max, 0)
    expired = _stop_check(budget)
    return _search(_layer_chain(build_maximal(network, T).edges, k_max), expired)


def algorithm_b(
    network: Network,
    T: int,
    k_max: int,
    budget: float | None = None,
) -> CycleSearchResult:
    """Cycle search over every path of the maximal-edge graph.

    The paths of 1 to ``k_max`` edges feed the cycle extraction, shortest
    length first; retained cycles are the dominance-maximal ones per length.
    The budget's clock starts before E* is built.
    """
    check_int("k_max", k_max, 0)
    expired = _stop_check(budget)
    rows = _rows(build_maximal(network, T).edges)
    return _search(([rows] * k for k in range(1, k_max + 1)), expired)


def pareto_filter(
    cycles: Iterable[tuple[int, ...]],
    T: int,
    num_links: int,
) -> list[tuple[int, ...]]:
    """Keep cycles whose rate vectors are not strictly dominated.

    Each cycle's rate is packed once; the distinct packed rates go through
    the front, and the kept cycles come out sorted and distinct.  Cycles
    sharing a maximal rate vector are all retained, so every surviving
    vector keeps its witnesses retrievable.  A cycle that is not closed, a
    ``T`` that is not a window length, or a block outside the window,
    raises ValueError.
    """
    items = tuple(cycles)
    rates, _, width = _packed_rates(items, T, num_links)
    guards = sum(1 << (width * j + width - 1) for j in range(num_links))
    front = set(_pareto_front(rates, guards))
    return sorted({c for c, r in zip(items, rates) if r in front})


def _pareto_front(rates: Iterable[int], guards: int) -> list[int]:
    """The distinct packed rates that no other one strictly dominates, largest first.

    Fields are non-negative ints with a clear guard bit on top, one per
    bit of ``guards``.  A dominator is the larger int, so taken in
    decreasing order, a rate is dominated iff an earlier kept one covers
    it.  ``f`` covers ``u`` iff subtracting ``u`` from ``f`` with every
    guard set borrows from none of them (Lamport, CACM 18(8), 1975).
    """
    kept: list[int] = []  # each kept rate with its guards set
    for r in sorted(set(rates), reverse=True):
        if not any((g - r) & guards == guards for g in kept):
            kept.append(r | guards)
    return [g ^ guards for g in kept]
