"""Rate regions: generator sets, membership queries, and diagnostics.

Regions are stored purely by their generators (dominance-maximal exact
rational rate vectors), each with a witness cycle where one exists.
Membership of a vector means being dominated by a convex combination of
generators, decided by exact rational linear feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cycles import closed_path_rate, pareto_filter, rate_numerators
from .exactlp import dominating_combination, max_symmetric_scale
from .network import Network, character, check_list, format_rate, parse_rate, span_slots
from .window import block_from_rows, block_to_rows, build_window, check_bits, check_closed, check_int

__all__ = [
    "RegionDescription",
    "region_from_cycles",
    "is_achievable",
    "achievability_certificate",
    "framed_region",
    "sandwich_check",
    "window_symmetric_rate",
    "region_regime",
    "region_to_json",
    "region_from_json",
]


@dataclass(frozen=True)
class RegionDescription:
    """V-representation of a region: pairwise non-dominated generators."""

    links: tuple[str, ...]
    T: int
    generators: tuple[tuple[Fraction, ...], ...]
    witnesses: tuple[tuple[int, ...] | None, ...]
    provenance: Mapping

    def __post_init__(self):
        if len(self.witnesses) != len(self.generators):
            raise ValueError("one witness slot per generator required")
        if any(len(g) != len(self.links) for g in self.generators):
            raise ValueError("every generator needs one rate per link")
        if len(set(self.links)) != len(self.links):
            raise ValueError(f"duplicate link names in {list(self.links)}")
        check_int("window length", self.T, 1)


def region_regime(network: Network, T: int) -> str:
    """Whether cycle rates at this window length are achievable or only a bound.

    ``exact`` iff ``T >= span_slots(network)``: every collision set, which
    spans at most ``T + 1`` slots with its link, then fits inside two
    consecutive T-blocks wherever it starts, so the scheduling graph's
    edges check every collision and each cycle is a collision-free
    schedule.
    """
    check_int("window length", T, 1)
    return "exact" if T >= span_slots(network) else "outer-bound"


def _drop_convex_redundant(rates: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Reduce to the unique irredundant generating set.

    A vector already dominated by a convex combination of the others adds
    nothing to the region; iterative removal is order-independent because
    extreme vectors can never become removable.
    """
    kept = list(rates)
    for rate in sorted(rates):
        if len(kept) <= 1:
            break
        others = [r for r in kept if r != rate]
        if dominating_combination(others, rate) is not None:
            kept = others
    return kept


def region_from_cycles(
    network: Network,
    cycles: Iterable[tuple[int, ...]],
    T: int,
    provenance: Mapping | None = None,
) -> RegionDescription:
    """Collapse a cycle set to the maximal rate vectors generating its hull."""
    regime = region_regime(network, T)  # checks T before any work
    num_links = len(network.links)
    kept = pareto_filter(cycles, T, num_links)
    numerators, den = rate_numerators(kept, T, num_links)
    by_rate: dict[tuple[int, ...], tuple[int, ...]] = {}
    for cyc, rate in zip(kept, numerators):
        by_rate.setdefault(rate, cyc)  # kept is sorted: the least cycle wins
    hull = sorted(_drop_convex_redundant(list(by_rate)))
    generators = tuple(tuple(Fraction(x, den) for x in rate) for rate in hull)
    witnesses = tuple(by_rate[rate] for rate in hull)
    prov = dict(provenance or {})
    prov.setdefault("regime", regime)
    return RegionDescription(network.links, T, generators, witnesses, prov)


def achievability_certificate(region: RegionDescription,
                              rate: Sequence[Fraction]) -> list[Fraction] | None:
    """Weights of a convex combination of the generators dominating the rate, or None.

    Rate entries are ints, Fractions or "p/q" strings, read exactly; a
    float entry, which holds only its binary value, raises TypeError.  The
    first generator covering the rate is its own certificate (unit
    weight), and a coordinate above every generator's answers no, both
    without an LP.
    """
    if len(rate) != len(region.links):
        raise ValueError("rate dimension does not match region links")
    if any(isinstance(r, float) for r in rate):
        raise TypeError(f"rate entries must be int, Fraction or 'p/q' strings, got {rate!r}")
    rate = tuple(Fraction(r) for r in rate)
    gens = region.generators
    for i, gen in enumerate(gens):
        if all(g >= r for g, r in zip(gen, rate)):
            return [Fraction(int(j == i)) for j in range(len(gens))]
    if not gens or any(r > max(col) for r, col in zip(rate, zip(*gens))):
        return None
    return dominating_combination(gens, rate)


def is_achievable(region: RegionDescription, rate: Sequence[Fraction]) -> bool:
    """Is the vector dominated by a convex combination of the generators?"""
    return achievability_certificate(region, rate) is not None


def framed_region(network: Network) -> RegionDescription:
    """Region of frame-synchronized scheduling.

    Its generators are the indicator vectors of the maximal independent
    sets of the static conflict structure; each one is witnessed by the
    constant schedule repeating that indicator.
    """
    zero_delays = {pair: 0 for pair in network.delays}
    static = Network(network.links, network.collisions, zero_delays)
    # Sorted indicators give sorted 0/1 rate tuples: link 0 is the top bit.
    indicators = build_window(static, 1).maximal_independent_sets()
    witnesses = tuple((bits, bits) for bits in indicators)
    counts, _ = rate_numerators(witnesses, 1, len(network.links))
    generators = tuple(tuple(map(Fraction, c)) for c in counts)
    return RegionDescription(
        network.links, 1, generators, witnesses,
        {"algorithm": "framed", "regime": "exact"},
    )


def sandwich_check(inner: RegionDescription, outer: RegionDescription) -> bool:
    """True iff every inner generator is dominated within the outer region."""
    if inner.links != outer.links:
        raise ValueError("regions live on different link sets")
    return all(is_achievable(outer, g) for g in inner.generators)


def window_symmetric_rate(network: Network, T: int) -> Fraction:
    """Largest a with (a, ..., a) in the scaled window-region hull.

    Takes the activation-count vectors of the maximal independent sets of
    the T-window, as the one-block closed paths ``(b, b)`` that
    ``pareto_filter`` keeps (every independent set lies inside a maximal
    one, whose count vector covers its own, so the Pareto front is that of
    all the independent sets), and maximizes the symmetric coordinate by
    exact LP under the T/(T+D*) guard-time factor.  The window is held to
    the brute-force cap, checked before the window is built, although the
    binary maximal-set search needs none.
    """
    check_int("window length", T, 1)
    check_bits(len(network.links) * T)
    window = build_window(network, T)
    num_links = len(network.links)
    # Dominated count vectors never help a >=-feasibility problem.
    kept = pareto_filter([(b, b) for b in window.maximal_independent_sets()], T, num_links)
    sums, _ = rate_numerators(kept, T, num_links)
    return max_symmetric_scale(sorted(set(sums)), Fraction(1, T + character(network)))


def region_to_json(region: RegionDescription) -> dict:
    num_links = len(region.links)
    gens = []
    for rate, witness in zip(region.generators, region.witnesses):
        entry: dict = {"rate": [format_rate(r) for r in rate]}
        if witness is not None:
            entry["witness"] = [
                block_to_rows(b, num_links, region.T) for b in witness
            ]
        gens.append(entry)
    return {
        "links": list(region.links),
        "T": region.T,
        "provenance": dict(region.provenance),
        "generators": gens,
    }


def region_from_json(doc: Mapping) -> RegionDescription:
    """Parse a region document; every witness must give its generator's rate.

    Every malformed document, a missing key or a member of the wrong type
    included, raises ValueError as ``bad region document: ...``.
    """
    try:
        links = tuple(str(l) for l in check_list("links", doc["links"]))
        T = check_int("window length", doc["T"], 1)
        generators = []
        witnesses = []
        for entry in check_list("generators", doc["generators"]):
            rate = tuple(parse_rate(r) for r in check_list("rate", entry["rate"]))
            if not all(0 <= r <= 1 for r in rate):
                raise ValueError(f"generator rate {entry['rate']} is not in [0, 1]")
            generators.append(rate)
            witness = entry.get("witness")
            if witness is not None:
                for rows in check_list("witness", witness):
                    if len(check_list("witness block", rows)) != len(links):
                        raise ValueError("every witness block needs one row per link")
                witness = check_closed("witness", tuple(block_from_rows(b, T) for b in witness))
            witnesses.append(witness)
        region = RegionDescription(
            links, T, tuple(generators), tuple(witnesses), dict(doc.get("provenance", {}))
        )
        for rate, witness in zip(region.generators, region.witnesses):
            if witness is None:
                continue
            made = closed_path_rate(witness, T, len(links))
            if made != rate:
                raise ValueError(f"witness rate {[format_rate(r) for r in made]} is not"
                                 f" its generator's {[format_rate(r) for r in rate]}")
        return region
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"bad region document: {exc}") from exc
