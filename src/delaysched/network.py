"""Discrete network model: link set, collision profile, link-wise delays.

A network couples a finite set of directed links with a collision profile
(per link, a family of link subsets whose simultaneous arrival at the
receiver destroys reception) and a partial integer delay matrix.  Delay
entries outside the collision support are unspecified and must never be
read; they are represented simply as absent keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InvalidNetworkError

__all__ = [
    "Network",
    "make_network",
    "validate",
    "is_binary",
    "character",
    "apply_vertex_assignment",
    "collision_support",
    "gcd_reduce",
    "line_network",
    "network_from_json",
    "network_to_json",
    "network_fingerprint",
]


@dataclass(frozen=True)
class Network:
    """Immutable network ``(links, collision profile, delays)``.

    ``collisions`` maps each link to a tuple of collision sets (frozensets
    of links).  ``delays`` maps ordered link pairs to integer timeslot
    offsets; absent pairs are unspecified.
    """

    links: tuple[str, ...]
    collisions: Mapping[str, tuple[frozenset[str], ...]]
    delays: Mapping[tuple[str, str], int]

    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.links)})

    def link_index(self, link: str) -> int:
        try:
            return self._index[link]
        except KeyError:
            raise InvalidNetworkError(f"unknown link {link!r}") from None

    def profile(self, link: str) -> tuple[frozenset[str], ...]:
        return self.collisions.get(link, ())

    def delay(self, l: str, lp: str) -> int:
        try:
            return self.delays[(l, lp)]
        except KeyError:
            raise InvalidNetworkError(
                f"delay ({l!r}, {lp!r}) is unspecified but was read"
            ) from None


def make_network(
    links: Sequence[str],
    collisions: Mapping[str, Iterable[Iterable[str]]],
    delays: Mapping[tuple[str, str], int],
) -> Network:
    """Normalize raw containers into a :class:`Network` (no validation)."""
    norm = {}
    for link in links:
        sets = collisions.get(link, ())
        phis = sorted({frozenset(phi) for phi in sets}, key=sorted)
        norm[link] = tuple(phis)
    return Network(tuple(links), norm, dict(delays))


def validate(network: Network) -> None:
    """Check all structural invariants, raising on the first violation."""
    seen = set()
    for link in network.links:
        if link in seen:
            raise InvalidNetworkError(f"duplicate link identifier {link!r}")
        seen.add(link)
    for link in network.collisions:
        if link not in seen:
            raise InvalidNetworkError(f"collision profile names unknown link {link!r}")
    for (l, lp), d in network.delays.items():
        if l not in seen or lp not in seen:
            raise InvalidNetworkError(f"delay entry ({l!r}, {lp!r}) names an unknown link")
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidNetworkError(f"delay entry ({l!r}, {lp!r}) is not an integer")
    for link in network.links:
        for phi in network.profile(link):
            if not phi:
                raise InvalidNetworkError(f"empty collision set in profile of {link!r}")
            for lp in phi:
                if lp not in seen:
                    raise InvalidNetworkError(
                        f"collision set of {link!r} references unknown link {lp!r}"
                    )
                if (link, lp) not in network.delays:
                    raise InvalidNetworkError(
                        f"missing delay for support pair ({link!r}, {lp!r})"
                    )


def is_binary(network: Network) -> bool:
    """True iff every collision set is a singleton."""
    return all(
        len(phi) == 1 for link in network.links for phi in network.profile(link)
    )


def _support_pairs(network: Network):
    for link in network.links:
        for phi in network.profile(link):
            for lp in sorted(phi):
                yield link, lp


def character(network: Network) -> int:
    """Maximum absolute delay over the collision support (0 if empty)."""
    return max((abs(network.delay(l, lp)) for l, lp in _support_pairs(network)), default=0)


def collision_support(network: Network) -> dict[str, frozenset[str]]:
    """Flatten the collision profile: the union of each link's collision sets."""
    return {
        link: frozenset().union(*network.profile(link)) if network.profile(link) else frozenset()
        for link in network.links
    }


def apply_vertex_assignment(network: Network, b: Mapping[str, int]) -> Network:
    """Shift delays by a per-link integer assignment.

    The resulting network is isomorphic to the input: same links, same
    collision profile, and entry ``(l, l')`` becomes ``d + b[l] - b[l']``.
    Unspecified entries stay unspecified.
    """
    missing = [l for l in network.links if l not in b]
    if missing:
        raise InvalidNetworkError(f"vertex assignment missing links {missing}")
    delays = {
        (l, lp): d + b[l] - b[lp] for (l, lp), d in network.delays.items()
    }
    return Network(network.links, network.collisions, delays)


def gcd_reduce(network: Network) -> tuple[Network, int]:
    """Divide support delays by their GCD; returns ``(reduced, g)``.

    The GCD is taken over the absolute values of the nonzero delays on the
    collision support; if there are none, ``g = 1`` and the network is
    returned unchanged.  Entries outside the support are dropped (they are
    unspecified for all purposes and need not be divisible by ``g``).
    """
    support = set(_support_pairs(network))
    g = 0
    for pair in support:
        g = math.gcd(g, abs(network.delays[pair]))
    if g in (0, 1):
        return network, 1
    delays = {pair: network.delays[pair] // g for pair in support}
    return Network(network.links, network.collisions, delays), g


def line_network(L: int, K: int) -> Network:
    """Multihop line network with ``L`` links and ``K``-hop collisions.

    Link ``i`` (1-based) runs from node ``i`` to ``i+1``.  Its collision
    set holds every other link within ``K`` hops of its receiver, and the
    delay toward such a link ``j`` is ``1 - |j - i - 1|``.
    """
    if L < 1 or K < 1:
        raise InvalidNetworkError("line network needs L >= 1 and K >= 1")
    links = tuple(f"l{i}" for i in range(1, L + 1))
    collisions: dict[str, list[list[str]]] = {}
    delays: dict[tuple[str, str], int] = {}
    for i in range(1, L + 1):
        phis = []
        for j in range(1, L + 1):
            if j != i and abs(j - i - 1) <= K:
                phis.append([f"l{j}"])
                delays[(f"l{i}", f"l{j}")] = 1 - abs(j - i - 1)
        collisions[f"l{i}"] = phis
    return make_network(links, collisions, delays)


def network_to_json(network: Network) -> dict:
    """Serialize to the canonical JSON document shape."""
    return {
        "links": list(network.links),
        "collisions": {
            link: [sorted(phi) for phi in network.profile(link)]
            for link in network.links
        },
        "delays": [[l, lp, d] for (l, lp), d in sorted(network.delays.items())],
    }


def network_from_json(doc: Mapping) -> Network:
    """Parse a network document; validates before returning.

    Two delay conventions are accepted: explicit ``delays`` triples, or a
    ``node_delays`` matrix plus ``link_endpoints`` (0-based node indices),
    from which link-wise delays are derived for exactly the collision
    support: ``D_L(l, l') = D(s_l, r_l) - D(s_l', r_l)``.
    """
    try:
        links = [str(l) for l in doc["links"]]
        raw_collisions = doc.get("collisions", {})
        collisions = {
            str(link): [[str(m) for m in phi] for phi in phis]
            for link, phis in raw_collisions.items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidNetworkError(f"malformed network document: {exc}") from exc

    if "delays" in doc:
        delays = {}
        for triple in doc["delays"]:
            try:
                l, lp, d = triple
            except (TypeError, ValueError) as exc:
                raise InvalidNetworkError(f"malformed delay triple {triple!r}") from exc
            delays[(str(l), str(lp))] = d
    elif "node_delays" in doc:
        matrix = doc["node_delays"]
        endpoints = doc.get("link_endpoints")
        if endpoints is None:
            raise InvalidNetworkError("node_delays requires link_endpoints")
        network = make_network(links, collisions, {})
        delays = {}
        try:
            for l, support in collision_support(network).items():
                s_l, r_l = endpoints[l]
                for lp in support:
                    s_lp, _ = endpoints[lp]
                    delays[(l, lp)] = matrix[s_l][r_l] - matrix[s_lp][r_l]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InvalidNetworkError(f"bad node_delays/link_endpoints: {exc}") from exc
    else:
        raise InvalidNetworkError("network document has neither delays nor node_delays")

    network = make_network(links, collisions, delays)
    validate(network)
    return network


def network_fingerprint(network: Network) -> str:
    """Stable content hash of the canonical JSON form."""
    import hashlib

    blob = json.dumps(network_to_json(network), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def format_rate(value: Fraction) -> str:
    """Rationals travel as "p/q" strings, never floats."""
    return f"{value.numerator}/{value.denominator}"


def parse_rate(text: str) -> Fraction:
    return Fraction(text.strip())
