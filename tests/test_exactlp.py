import random
from fractions import Fraction

import pytest

from delaysched import (
    algorithm_a,
    algorithm_b,
    build_window,
    exactlp,
    line_network,
    region_from_cycles,
    window_symmetric_rate,
)
from delaysched import region as region_module
from delaysched.exactlp import dominating_combination, max_symmetric_scale, simplex_min

from conftest import random_network

F = Fraction


# The rational simplex the fraction-free one replaced, kept as its oracle:
# a Fraction tableau whose reduced costs are recomputed on every pivot.

def _ref_pivot(tab, basis, r, s):
    piv = tab[r][s]
    tab[r] = [x / piv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][s]:
            f = tab[i][s]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
    basis[r] = s


def _ref_optimize(tab, basis, cost, ncols) -> bool:
    """Bland-rule simplex sweep; False means unbounded."""
    m = len(tab)
    while True:
        z = [
            cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
            for j in range(ncols)
        ]
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return True
        leave = None
        ratio = None
        for i in range(m):
            if tab[i][enter] > 0:
                r = tab[i][-1] / tab[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        if leave is None:
            return False
        _ref_pivot(tab, basis, leave, enter)


def _ref_simplex_min(c, A, b):
    """min c.x  s.t.  A x = b, x >= 0.  Returns (status, x, value)."""
    m, n = len(A), len(c)
    tab = []
    for row, bi in zip(A, b):
        r = [Fraction(v) for v in row]
        rhs = Fraction(bi)
        if rhs < 0:
            r = [-v for v in r]
            rhs = -rhs
        tab.append(r + [Fraction(0)] * m + [rhs])
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    _ref_optimize(tab, basis, phase1, n + m)
    if sum(phase1[basis[i]] * tab[i][-1] for i in range(m)) != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            s = next((j for j in range(n) if tab[i][j] != 0), None)
            if s is not None:
                _ref_pivot(tab, basis, i, s)

    cost = [Fraction(v) for v in c] + [Fraction(0)] * m
    if not _ref_optimize(tab, basis, cost, n):
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return "optimal", x, sum(Fraction(v) * xv for v, xv in zip(c, x))


def test_simplex_basic_optimum():
    # min -x - y  s.t.  x + y + s = 4, x + 3y + t = 6
    status, x, val = simplex_min(
        [-1, -1, 0, 0],
        [[1, 1, 1, 0], [1, 3, 0, 1]],
        [4, 6],
    )
    assert status == "optimal"
    assert val == -4


def test_simplex_infeasible():
    # x + y = -1 with x, y >= 0 is impossible.
    status, _, _ = simplex_min([0, 0], [[1, 1]], [-1])
    assert status == "infeasible"


def test_simplex_unbounded():
    # min -x with x - y = 0: x can grow forever.
    status, _, _ = simplex_min([-1, 0], [[1, -1]], [0])
    assert status == "unbounded"


def test_simplex_degenerate_terminates():
    status, x, val = simplex_min(
        [-1, -1, 0, 0, 0],
        [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]],
        [1, 1, 1],
    )
    assert status == "optimal"
    assert val == -1


def test_simplex_edge_shapes():
    # No constraint rows: every point x >= 0 is feasible.
    assert simplex_min([1], [], []) == ("optimal", [F(0)], F(0))
    assert simplex_min([-1], [], []) == ("unbounded", None, None)
    # No columns: the one row reads 0 = b.
    none = simplex_min([], [[]], [0])
    assert none == ("optimal", [], F(0)) and type(none[2]) is Fraction
    assert simplex_min([], [[]], [1]) == ("infeasible", None, None)


def test_dominating_combination_reference():
    gens = [(F(1), F(0)), (F(0), F(1))]
    w = dominating_combination(gens, (F(1, 2), F(1, 2)))
    assert w is not None and sum(w) == 1
    assert all(wi >= 0 for wi in w)
    assert dominating_combination(gens, (F(2, 3), F(2, 3))) is None
    assert dominating_combination([], (F(0),)) is None
    # An empty target is met by any convex weights; the first vertex is found.
    assert dominating_combination([(), ()], ()) == [F(1), F(0)]


def test_dominating_combination_strict_interior():
    gens = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert dominating_combination(gens, (F(1, 3), F(1, 3), F(1, 3))) is not None
    assert dominating_combination(gens, (F(1, 3), F(1, 3), F(1, 2))) is None


def test_max_symmetric_scale_simplex_vertexes():
    gens = [(F(1), F(0)), (F(0), F(1))]
    assert max_symmetric_scale(gens, F(1)) == F(1, 2)
    assert max_symmetric_scale(gens, F(1, 2)) == F(1, 4)
    assert max_symmetric_scale([(F(0), F(0))], F(1)) == 0
    assert max_symmetric_scale([], F(1)) == 0


def test_max_symmetric_scale_rejects_vectors_with_no_coordinates():
    # No coordinate bounds a, so the LP is unbounded.
    with pytest.raises(ValueError, match="no coordinates is unbounded"):
        max_symmetric_scale([()], F(1))


def test_random_feasibility_consistency():
    # Any convex combination of generators must come back achievable, and
    # anything strictly above the per-coordinate maximum must not.
    rng = random.Random(42)
    for _ in range(25):
        dims = rng.randint(1, 4)
        gens = [
            tuple(F(rng.randint(0, 4), 4) for _ in range(dims))
            for _ in range(rng.randint(1, 5))
        ]
        weights = [F(rng.randint(0, 5)) for _ in gens]
        total = sum(weights) or F(1)
        weights = [w / total for w in weights]
        target = tuple(
            sum(w * g[d] for w, g in zip(weights, gens)) for d in range(dims)
        )
        assert dominating_combination(gens, target) is not None
        above = tuple(max(g[d] for g in gens) + F(1, 100) for d in range(dims))
        assert dominating_combination(gens, above) is None


def _random_entry(rng):
    roll = rng.random()
    if roll < 0.35:
        return 0
    if roll < 0.7:
        return rng.randint(-3, 3)
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def test_simplex_matches_rational_reference():
    # Zero-heavy entries give degenerate pivots; a copied row makes the
    # system redundant, so an artificial stays basic after phase 1.
    rng = random.Random(20240)
    statuses = {}
    degenerate = 0
    for _ in range(2500):
        m, n = rng.randint(0, 4), rng.randint(0, 6)
        A = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        b = [_random_entry(rng) for _ in range(m)]
        c = [_random_entry(rng) for _ in range(n)]
        if m >= 2 and rng.random() < 0.2:
            A[-1], b[-1] = list(A[0]), b[0]
        expected = _ref_simplex_min(c, A, b)
        assert simplex_min(c, A, b) == expected, (c, A, b)
        statuses[expected[0]] = statuses.get(expected[0], 0) + 1
        if expected[0] == "optimal":
            degenerate += sum(1 for v in expected[1] if v) < m
    assert min(statuses.get(s, 0) for s in ("optimal", "infeasible", "unbounded")) > 500
    assert degenerate > 200


def test_simplex_ratio_tie_goes_to_lowest_basis_index():
    # Both rows tie in phase 1's first ratio test; leaving by the lower
    # basis index ends at this optimum, the other choice at (0, 0, 1, 0).
    c, A, b = [1, 0, 0, 0], [[2, 1, 2, 0], [1, 0, 1, 1]], [2, 1]
    expected = ("optimal", [F(0), F(2), F(0), F(1)], F(0))
    assert _ref_simplex_min(c, A, b) == expected
    assert simplex_min(c, A, b) == expected


def test_int_and_fraction_entries_give_the_same_solution():
    rng = random.Random(4711)
    seen = set()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        as_int = simplex_min(c, A, b)
        as_fraction = simplex_min(
            [F(v) for v in c], [[F(v) for v in row] for row in A], [F(v) for v in b]
        )
        assert as_int == as_fraction
        seen.add(as_int[0])
        if as_int[0] == "optimal":
            assert type(as_int[2]) is Fraction
            assert all(type(x) is Fraction for x in as_int[1])
    assert seen == {"optimal", "infeasible", "unbounded"}
    # A zero cost vector still gives a Fraction value.
    zero_cost = simplex_min([0, 0], [[1, 1]], [1])
    assert zero_cost == ("optimal", [F(1), F(0)], F(0))
    assert type(zero_cost[2]) is Fraction


def test_float_entries_are_rejected():
    with pytest.raises(TypeError, match="int or Fraction"):
        simplex_min([1, 0], [[1, 0.5]], [1])
    with pytest.raises(TypeError, match="int or Fraction"):
        simplex_min([1, 0], [[1, 1]], [1.0])
    with pytest.raises(TypeError, match="int or Fraction"):
        simplex_min([0.5, 0], [[1, 1]], [1])


def _as_fractions(c, A, b):
    """The LP with every int entry given as ``Fraction(v, 1)``, so that
    ``simplex_min`` reads it through numerators and denominators."""
    def frac(v):
        return F(v, 1) if type(v) is int else v
    return [frac(v) for v in c], [[frac(v) for v in row] for row in A], [frac(v) for v in b]


def test_all_int_entry_matches_the_fraction_entry():
    # Every int LP, negative right-hand sides included, gives the same
    # status, point and value as the same LP read as Fractions.
    rng = random.Random(2431)
    seen, negative = set(), 0
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        c = [rng.randint(-6, 6) for _ in range(n)]
        negative += any(v < 0 for v in b)
        got = simplex_min(c, A, b)
        assert got == simplex_min(*_as_fractions(c, A, b)), (c, A, b)
        assert got == _ref_simplex_min(c, A, b), (c, A, b)
        seen.add(got[0])
    assert seen == {"optimal", "infeasible", "unbounded"} and negative > 200


def test_all_int_entry_negates_rows_with_a_negative_rhs():
    # -x0 - x1 = -2 is x0 + x1 = 2; the optimum puts it all on the cheaper x1.
    expected = ("optimal", [F(0), F(2)], F(2))
    assert simplex_min([3, 1], [[-1, -1]], [-2]) == expected
    assert simplex_min([3, 1], [[-1, -1], [1, 0]], [-2, 0]) == expected


def test_bool_entries_take_the_fraction_path(monkeypatch):
    # A bool is read through its numerator and denominator, as before.
    calls = []

    def spy(entries):
        entries = list(entries)
        calls.append(entries)
        return exactlp.lcm(*(v.denominator for v in entries))

    monkeypatch.setattr(exactlp, "_common_denominator", spy)
    assert simplex_min([1, 0], [[True, 1]], [1]) == simplex_min([1, 0], [[1, 1]], [1])
    assert len(calls) == 2 and True in calls[0]
    calls.clear()
    simplex_min([1, 0], [[1, 1]], [1])
    assert calls == []


@pytest.mark.parametrize("c, A, b", [
    ([0, 0], [[1]], [1]),  # a row shorter than c
    ([0, 0], [[1, 1, 5]], [1]),  # a row longer than c
    ([0, 0], [[1, 1]], [1, 7]),  # more right-hand sides than rows
    ([0, 0], [[1, 1], [1, 0]], [1]),  # more rows than right-hand sides
])
def test_ragged_input_is_rejected(c, A, b):
    with pytest.raises(ValueError, match="LP shape"):
        simplex_min(c, A, b)


def _wide_row(rng, kind, n, i, dens):
    if kind == "hilbert":
        # Hilbert-style rows: the minors grow fastest, and so does the field width.
        offset = rng.randint(0, 3)
        return [F(rng.choice((1, -1)), i + j + 1 + offset) for j in range(n)]
    row = []
    for _ in range(n):
        if rng.random() < 0.3:
            row.append(0)
        elif kind == "int":
            row.append(rng.randint(-10**12, 10**12))
        elif kind == "fraction":
            row.append(F(rng.randint(-10**6, 10**6), rng.choice(dens)))
        else:
            row.append(rng.randint(-3, 3))
    return row


def test_wide_packed_rows_match_rational_reference():
    # Up to 8 rows and 48 columns with 10**12 ints, Fractions with 10**6
    # denominators and Hilbert rows make fields hundreds of bits wide; a
    # copied row keeps an artificial basic after phase 1.  Each LP draws
    # its Fractions over three denominators: with hundreds of distinct
    # ones the common denominator alone runs to thousands of bits, and
    # one LP takes seconds in this simplex.
    rng = random.Random(13013)
    statuses = {}
    for kind in ("small", "int", "fraction", "hilbert") * 12:
        m, n = rng.randint(1, 8), rng.randint(1, 48)
        dens = [rng.randint(1, 10**6) for _ in range(3)]
        A = [_wide_row(rng, kind, n, i, dens) for i in range(m)]
        if rng.random() < 0.5:  # feasible by construction
            x0 = [rng.randint(1, 2) if rng.random() < 0.3 else 0 for _ in range(n)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        else:
            b = _wide_row(rng, kind, m, 0, dens)
        c = _wide_row(rng, kind, n, m, dens)
        if rng.random() < 0.5:  # bounded below
            c = [abs(v) for v in c]
        if m >= 2 and rng.random() < 0.3:
            A[-1], b[-1] = list(A[0]), b[0]
        expected = _ref_simplex_min(c, A, b)
        assert simplex_min(c, A, b) == expected, (kind, c, A, b)
        statuses[expected[0]] = statuses.get(expected[0], 0) + 1
    assert min(statuses.get(s, 0) for s in ("optimal", "infeasible", "unbounded")) >= 3


@pytest.mark.parametrize("L, T, k", [(5, 2, 3), (6, 1, 3)])
def test_region_lps_match_rational_reference(monkeypatch, L, T, k):
    # Every LP that region_from_cycles solves on two benchmark ladder rungs.
    calls = []
    solve = exactlp.simplex_min

    def record(c, A, b):
        result = solve(c, A, b)
        calls.append((c, A, b, result))
        return result

    monkeypatch.setattr(exactlp, "simplex_min", record)
    net = line_network(L, 1)
    region_from_cycles(net, algorithm_a(net, T, k).cycles, T)
    assert calls
    for c, A, b, result in calls:
        assert result == _ref_simplex_min(c, A, b)


def test_dominating_combination_rejects_ragged_generators():
    with pytest.raises(ValueError, match="len\\(target\\) = 2"):
        dominating_combination([(1, 1, 0)], (1, 1))
    with pytest.raises(ValueError, match="len\\(target\\) = 2"):
        dominating_combination([(1, 1), (1,)], (1, 1))


@pytest.mark.parametrize("vectors, factor", [
    ([(1, 0), (0, 1)], -1), ([(-1, -1)], 1),
], ids=["negative-factor", "negative-vector"])
def test_max_symmetric_scale_rejects_vectors_with_no_nonnegative_combination(vectors, factor):
    # a >= 0 needs some scaled convex combination >= 0 in every coordinate.
    with pytest.raises(ValueError, match="no convex combination of the scaled vectors is >= 0"):
        max_symmetric_scale(vectors, factor)


def test_max_symmetric_scale_rejects_ragged_vectors():
    with pytest.raises(ValueError, match="first one's 2 coordinates"):
        max_symmetric_scale([(1, 2), (3, 4, 5)], 1)
    with pytest.raises(ValueError, match="first one's 3 coordinates"):
        max_symmetric_scale([(1, 2, 3), (3, 4)], 1)


# The LPs of the two queries, written out row by row: the convexity row
# last, the symmetric column ``a`` between lambda and the slacks.

def _ref_dominating_lp(generators, target):
    dims, n = len(target), len(generators)
    A, b = [], []
    for l in range(dims):
        A.append([g[l] for g in generators] + [-int(j == l) for j in range(dims)])
        b.append(target[l])
    A.append([1] * n + [0] * dims)
    b.append(1)
    return [0] * (n + dims), A, b


def _ref_symmetric_lp(vectors, factor):
    dims, n = len(vectors[0]), len(vectors)
    A, b = [], []
    for l in range(dims):
        row = [factor * v[l] for v in vectors]
        row.append(-1)
        row.extend(-int(j == l) for j in range(dims))
        A.append(row)
        b.append(0)
    A.append([1] * n + [0] * (dims + 1))
    b.append(1)
    return [0] * n + [-1] + [0] * dims, A, b


def _typed(obj):
    """``obj`` with the type of every container and entry beside it, since
    ``1 == True == Fraction(1)`` would hide a changed type."""
    if isinstance(obj, (list, tuple)):
        return type(obj), [_typed(v) for v in obj]
    return type(obj), obj


@pytest.fixture
def query_lps(monkeypatch):
    """Checks each LP that the two queries hand ``simplex_min``, called
    through ``exactlp`` or ``region``, against its reference; counts the
    queries per name."""
    solve = exactlp.simplex_min
    handed = []

    def spy(c, A, b):
        handed.append((c, A, b))
        return solve(c, A, b)

    monkeypatch.setattr(exactlp, "simplex_min", spy)
    counts = {}
    refs = {"dominating_combination": _ref_dominating_lp,
            "max_symmetric_scale": _ref_symmetric_lp}
    for name, ref in refs.items():
        query = getattr(exactlp, name)

        def checked(vectors, arg, query=query, ref=ref, name=name):
            handed.clear()
            result = query(vectors, arg)
            # No vectors: the query answers without an LP.
            assert _typed(handed) == _typed([ref(vectors, arg)] if vectors else [])
            counts[name] = counts.get(name, 0) + 1
            return result

        monkeypatch.setattr(exactlp, name, checked)
        monkeypatch.setattr(region_module, name, checked)
    return counts


@pytest.mark.parametrize("L, T, k, search", [
    (4, 1, 4, algorithm_a),
    (5, 1, 4, algorithm_a),
    (6, 1, 3, algorithm_a),
    (4, 2, 3, algorithm_a),
    (5, 2, 3, algorithm_a),
    (4, 1, 4, algorithm_b),
    (5, 2, 3, algorithm_b),
])
def test_query_lps_of_the_ladder_regions(query_lps, L, T, k, search):
    # Int numerator tuples from the convex-redundancy step of each rung.
    net = line_network(L, 1)
    region_from_cycles(net, search(net, T, k).cycles, T)
    assert query_lps["dominating_combination"] > 0


def test_query_lps_of_random_regions(query_lps):
    # Corpus-style draws, each region queried at its centroid and above it.
    rng = random.Random(27027)
    draws = 0
    while draws < 40:
        T = rng.choice([1, 2])
        net = random_network(rng, regime_T=T)
        if sum(1 for _ in build_window(net, T).independent_sets()) > 48:
            continue
        draws += 1
        region = region_from_cycles(net, algorithm_a(net, T, 3).cycles, T)
        gens = region.generators
        centroid = tuple(sum(col) / len(gens) for col in zip(*gens))
        for query in (centroid, tuple(x + F(1, 8) for x in centroid)):
            region_module.achievability_certificate(region, query)
    assert query_lps["dominating_combination"] >= 80


def test_query_lps_of_window_rate_and_seeded_vectors(query_lps):
    # window-rate's one LP carries a Fraction factor, 1/(T + D*).
    assert window_symmetric_rate(line_network(4, 1), 6) > 0
    assert query_lps == {"max_symmetric_scale": 1}
    rng = random.Random(2707)
    kinds = {
        "int": lambda: rng.randint(0, 5),
        "fraction": lambda: F(rng.randint(0, 9), rng.randint(1, 4)),
        "bool": lambda: rng.random() < 0.5,
    }
    for kind in ("int", "fraction", "bool") * 10:
        draw = kinds[kind]
        dims = rng.randint(1, 4)
        vectors = [tuple(draw() for _ in range(dims)) for _ in range(rng.randint(1, 5))]
        target = tuple(draw() for _ in range(dims))
        factor = rng.choice([1, F(1, 3), draw()])
        exactlp.dominating_combination(vectors, target)
        exactlp.max_symmetric_scale(vectors, factor)
    assert query_lps == {"max_symmetric_scale": 31, "dominating_combination": 30}
