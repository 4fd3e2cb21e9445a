"""Small exact simplex, plus the two queries built on it.

The tableau is fraction-free.  Entries are read as int or Fraction
through their numerator and denominator, with no conversion; ``A`` and
``b`` are scaled by one common denominator (all-int input is taken as it
is), rows with a negative rhs are negated, and each pivot is an integer
Edmonds/Bareiss step whose division by the previous pivot is exact.  The
true tableau is the integer one over ``det``, which every basic column
holds in its own row.  The tableau holds one objective row at a time:
phase 1's, priced out against the artificial basis, then the costs,
priced out against the basis phase 1 leaves.  Bland's rule guarantees
termination; :class:`fractions.Fraction` appears only in the solution.

Each tableau row is one int, ``sum(v_j << w*j)``, summed over the field
offsets: the structural fields, then the artificial ones, then the rhs.
A Bareiss step is linear and its division is exact field by field, so it
runs on the whole packed row at once; intermediate products may overflow
a field, but the quotient does not.  Every entry a pivot produces is a
minor of the start tableau (Cramer), so the product of the start rows'
Euclidean norms (Hadamard) bounds it and fixes the field width ``w``.
Fields are read with a bias of ``2**(w-1)`` in each, which makes every
biased field non-negative and its top bit the entry's sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import lshift, mul
from typing import Sequence

__all__ = ["simplex_min", "dominating_combination", "max_symmetric_scale"]


def _spread(value: int, w: int, count: int) -> int:
    """``value`` repeated in each of the fields ``0..count-1``."""
    return value * (((1 << w * count) - 1) // ((1 << w) - 1))


class _Tableau:
    """Packed integer rows, the basis, and the common positive ``det``."""

    def __init__(self, rows: list[int], basis: list[int], w: int, nfields: int):
        self.rows, self.basis, self.w, self.det = rows, basis, w, 1
        self.half = 1 << (w - 1)
        self.mask = (1 << w) - 1
        self.bias = _spread(self.half, w, nfields)
        self.rhs_shift = w * (nfields - 1)

    def column(self, j: int) -> list[int]:
        shift, mask, half, bias = self.w * j, self.mask, self.half, self.bias
        return [((row + bias) >> shift & mask) - half for row in self.rows]

    def rhs(self, i: int) -> int:
        return ((self.rows[i] + self.bias) >> self.rhs_shift) - self.half

    def pivot(self, r: int, s: int, col: list[int]) -> None:
        """Integer pivot on row ``r``, column ``s``; ``col`` is column ``s``."""
        rows, det, piv = self.rows, self.det, col[r]
        prow = rows[r]
        for i, f in enumerate(col):
            if i != r:
                rows[i] = (piv * rows[i] - f * prow) // det
        self.basis[r] = s
        if piv < 0:
            rows[:] = [-row for row in rows]
        self.det = abs(piv)

    def optimize(self, z: int, ncols: int) -> bool:
        """Bland-rule sweep on objective row ``z``; False means unbounded."""
        rows, basis, w, half, bias, top = (
            self.rows, self.basis, self.w, self.half, self.bias, self.rhs_shift)
        # The sign bit of each biased field below ncols: clear iff negative.
        signs = bias & (1 << w * ncols) - 1
        while True:
            negative = signs & ~(rows[z] + bias)
            if not negative:
                return True
            enter = ((negative & -negative).bit_length() - 1) // w
            col = self.column(enter)
            leave = None
            for i in range(len(basis)):
                a = col[i]
                if a <= 0:
                    continue
                rhs = ((rows[i] + bias) >> top) - half
                # Ratios compared by cross-multiplication; ties go to the lower basis index.
                if leave is None or (rhs * best_a, basis[i]) < (best_rhs * a, basis[leave]):
                    leave, best_a, best_rhs = i, a, rhs
            if leave is None:
                return False
            self.pivot(leave, enter, col)


def _common_denominator(entries) -> int:
    """lcm of the denominators of int and Fraction entries."""
    try:
        return lcm(*(v.denominator for v in entries))
    except AttributeError:
        raise TypeError("LP entries must be int or Fraction") from None


def simplex_min(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """min c.x  s.t.  A x = b, x >= 0.  Returns (status, x, value).

    Entries are ints or Fractions, read through ``numerator`` and
    ``denominator`` as they are, so a bool reads as 0 or 1; an entry with
    no numerator and denominator (a float, say) raises TypeError.  ``A``
    must hold ``len(b)`` rows of ``len(c)`` entries, else ValueError.
    ``x`` and ``value`` are Fractions.
    """
    m, n = len(A), len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError(f"LP shape mismatch: A must have len(b) = {len(b)} rows "
                         f"of len(c) = {n} entries")
    rows, costs = [[*row, bi] for row, bi in zip(A, b)], c
    if any(type(v) is not int for v in c) or any(type(v) is not int for r in rows for v in r):
        # Clear the denominators: one scale for the rows, one for the costs.
        scale = _common_denominator(v for row in rows for v in row)
        cscale = _common_denominator(c)
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
        costs = [v.numerator * (cscale // v.denominator) for v in c]
    rows = [row if row[-1] >= 0 else [-v for v in row] for row in rows]
    # Squared row norms: each constraint row has its artificial 1, and the
    # phase-1 row, minus their sum, is bounded by Cauchy-Schwarz.  Each phase
    # holds one objective row, so only the larger one enters the bound.
    norms = [sum(map(mul, row, row)) + 1 for row in rows]
    objective = max(m * sum(norms), sum(map(mul, costs, costs)), 1)
    w = (isqrt(prod(norms) * objective) + 1).bit_length() + 2

    # Field offsets of the structural columns, then of the rhs (map stops the costs short of it).
    offsets = [w * j for j in range(n)] + [w * (n + m)]
    packed = [sum(map(lshift, row, offsets)) + (1 << w * (n + i))
              for i, row in enumerate(rows)]
    # Row m is the objective, priced out against the basis: phase 1's here, the costs after it.
    phase1 = (_spread(1, w, m) << w * n) - sum(packed)
    tab = _Tableau(packed + [phase1], list(range(n, n + m)), w, n + m + 1)
    basis = tab.basis

    tab.optimize(m, n + m)
    if tab.rhs(m) != 0:
        return "infeasible", None, None
    structural = (1 << w * n) - 1
    for i in range(m):
        if basis[i] >= n:
            low = tab.rows[i] & structural
            if low:
                s = ((low & -low).bit_length() - 1) // w
                tab.pivot(i, s, tab.column(s))
    tab.rows[m] = (tab.det * sum(map(lshift, costs, offsets))
                   - sum(costs[j] * row for row, j in zip(tab.rows, basis) if j < n))

    if not tab.optimize(m, n):
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab.rhs(i), tab.det)
    return "optimal", x, sum((v * x[j] for j, v in enumerate(c) if v), Fraction(0))


def _convex_cover(vectors: Sequence[Sequence], target: Sequence, extra: Sequence[Sequence] = ()):
    """``(A, b)`` of sum(lambda_i v_i) + extra - s = target, sum(lambda) = 1.

    Columns: lambda, then each ``extra`` column (its coordinates, then its
    entry in the convexity row), then one slack per coordinate.
    """
    dims = len(target)
    A = [[v[l] for v in vectors] + [e[l] for e in extra] + [-int(j == l) for j in range(dims)]
         for l in range(dims)]
    A.append([1] * len(vectors) + [e[dims] for e in extra] + [0] * dims)
    return A, [*target, 1]


def dominating_combination(
    generators: Sequence[Sequence[int | Fraction]],
    target: Sequence[int | Fraction],
) -> list[Fraction] | None:
    """Convex weights on the generators dominating ``target``, or None.

    Solves the exact feasibility problem: lambda >= 0, sum(lambda) = 1,
    sum(lambda_i g_i) >= target component-wise.  Entries are read as
    :func:`simplex_min` reads them (ints, Fractions or bools).  A generator
    whose length is not the target's raises ValueError.
    """
    if not generators:
        return None
    dims = len(target)
    if any(len(g) != dims for g in generators):
        raise ValueError(f"every generator must have len(target) = {dims} coordinates")
    n = len(generators)
    status, x, _ = simplex_min([0] * (n + dims), *_convex_cover(generators, target))
    if status != "optimal":
        return None
    return x[:n]


def max_symmetric_scale(
    vectors: Sequence[Sequence[int | Fraction]],
    factor: int | Fraction,
) -> Fraction:
    """max a such that (a, ..., a) <= factor * (some convex combination).

    Entries and ``factor`` are read as :func:`simplex_min` reads them
    (ints, Fractions or bools).  Vectors with no coordinates or of differing
    lengths raise ValueError, as do ones with no scaled convex combination >= 0.
    """
    if not vectors:
        return Fraction(0)
    dims = len(vectors[0])
    if not dims:
        raise ValueError("the symmetric rate of vectors with no coordinates is unbounded")
    if any(len(v) != dims for v in vectors):
        raise ValueError(f"every vector must have the first one's {dims} coordinates")
    n = len(vectors)
    # Variables: lambda (n), a, slack (dims).
    scaled = [[factor * x for x in v] for v in vectors]
    A, b = _convex_cover(scaled, [0] * dims, [[-1] * dims + [0]])
    status, x, _ = simplex_min([0] * n + [-1] + [0] * dims, A, b)
    if status != "optimal":  # a >= 0 is feasible iff some scaled combination is >= 0
        raise ValueError(
            "no convex combination of the scaled vectors is >= 0 in every coordinate")
    return x[n]
