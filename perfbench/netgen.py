"""Seeded network documents for the benchmark, independent of the program.

Every network is produced as a JSON-ready document in the shape the
``delaysched`` CLI reads, so the same inputs can be fed to the CLI or
parsed through the library.  Nothing here imports ``delaysched``: the
inputs do not change when the program under test changes.
"""

from __future__ import annotations

import random


def line_doc(L: int, K: int) -> dict:
    """Multihop line network: link i collides with links within K hops of its receiver."""
    links = [f"l{i}" for i in range(1, L + 1)]
    collisions = {}
    delays = []
    for i in range(1, L + 1):
        phis = []
        for j in range(1, L + 1):
            if j != i and abs(j - i - 1) <= K:
                phis.append([f"l{j}"])
                delays.append([f"l{i}", f"l{j}", 1 - abs(j - i - 1)])
        collisions[f"l{i}"] = phis
    return {"links": links, "collisions": collisions, "delays": sorted(delays)}


def hyper_chain_doc(L: int) -> dict:
    """Chain where each inner link i collides with the pair {i-1, i+1} at offsets -1/+1."""
    links = [f"l{i}" for i in range(1, L + 1)]
    collisions = {link: [] for link in links}
    delays = []
    for i in range(2, L):
        collisions[f"l{i}"] = [[f"l{i - 1}", f"l{i + 1}"]]
        delays += [[f"l{i}", f"l{i - 1}", -1], [f"l{i}", f"l{i + 1}", 1]]
    return {"links": links, "collisions": collisions, "delays": sorted(delays)}


def _window_masks(doc: dict, T: int) -> list[int]:
    """Hyperedges of the T-window as bitmasks over bit ``link * T + t``.

    A collision set yields an edge at slot t only when every member's
    offset slot also falls inside the window (induced subgraph).
    """
    index = {link: i for i, link in enumerate(doc["links"])}
    delay = {(a, b): d for a, b, d in doc["delays"]}
    masks = set()
    for link, phis in doc["collisions"].items():
        for phi in phis:
            for t in range(T):
                slots = [(lp, t + delay[(link, lp)]) for lp in phi]
                if all(0 <= s < T for _, s in slots):
                    m = 1 << (index[link] * T + t)
                    for lp, s in slots:
                        m |= 1 << (index[lp] * T + s)
                    masks.add(m)
    return sorted(masks)


def count_window_vertices(doc: dict, T: int, cap: int) -> int:
    """Independent sets of the T-window, counted up to ``cap + 1``."""
    nbits = len(doc["links"]) * T
    by_top: list[list[int]] = [[] for _ in range(nbits)]
    for m in _window_masks(doc, T):
        by_top[m.bit_length() - 1].append(m)
    count = 0

    def walk(p: int, cur: int) -> None:
        nonlocal count
        if count > cap:
            return
        if p == nbits:
            count += 1
            return
        walk(p + 1, cur)
        nxt = cur | 1 << p
        if all(nxt & m != m for m in by_top[p]):
            walk(p + 1, nxt)

    walk(0, 0)
    return count


def random_doc(rng: random.Random, T: int) -> dict:
    """Random network whose cycle rates at window T are exact.

    About 30% of draws have hypergraph profiles (pairs of interferers);
    delays stay within |d| <= T for binary profiles and |d| <= T // 2
    otherwise, the exact-regime condition of the scheduling graph.
    """
    hyper = rng.random() < 0.3
    L = rng.choice([3, 4] if hyper else [2, 3, 4])
    dmax = T // 2 if hyper else T
    links = [f"l{i}" for i in range(1, L + 1)]
    collisions: dict[str, list[list[str]]] = {link: [] for link in links}
    delays: dict[tuple[str, str], int] = {}
    for _ in range(rng.randint(L, 2 * L)):
        link = rng.choice(links)
        others = [x for x in links if x != link]
        if hyper and rng.random() < 0.6:
            phi = sorted(rng.sample(others, 2))
        else:
            phi = [rng.choice(others)]
        if phi not in collisions[link]:
            collisions[link].append(phi)
        for lp in phi:
            delays.setdefault((link, lp), rng.randint(-dmax, dmax))
    return {
        "links": links,
        "collisions": collisions,
        "delays": sorted([a, b, d] for (a, b), d in delays.items()),
    }


def relabel(doc: dict, rng: random.Random) -> dict:
    """Isomorphic copy: links renamed by a random permutation, and with
    probability 1/2 time reversed (every delay negated)."""
    links = doc["links"]
    names = dict(zip(links, rng.sample(links, len(links))))
    sign = rng.choice([1, -1])
    collisions = {
        names[link]: sorted(sorted(names[x] for x in phi) for phi in phis)
        for link, phis in doc["collisions"].items()
    }
    return {
        "links": sorted(links, key=lambda l: int(l[1:])),
        "collisions": dict(sorted(collisions.items())),
        "delays": sorted([names[a], names[b], sign * d] for a, b, d in doc["delays"]),
    }
