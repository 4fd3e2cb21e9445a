"""Small exact simplex, plus the two queries built on it.

The tableau is fraction-free.  Entries are read as int or Fraction
through their numerator and denominator, with no conversion; ``A`` and
``b`` are scaled by one common denominator (all-int input is taken as it
is), and each pivot is an integer
Edmonds/Bareiss step whose division by the previous pivot is exact.  The
true tableau is the integer one over ``det``, which every basic column
holds in its own row.  Both objective rows are carried in the tableau,
the phase-1 row until phase 1 ends.
Bland's rule guarantees termination; :class:`fractions.Fraction` appears
only in the solution.

Each tableau row is one int, ``sum(v_j << w*j)``: the structural fields,
then the artificial ones, then the rhs.  A Bareiss step is linear and its
division is exact field by field, so it runs on the whole packed row at
once; intermediate products may overflow a field, but the quotient does
not.  Every entry a pivot produces is a minor of the start tableau
(Cramer), so the product of the start rows' Euclidean norms (Hadamard)
bounds it and fixes the field width ``w``.  Fields are read with a bias
of ``2**(w-1)`` in each, which makes every biased field non-negative and
its top bit the entry's sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
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
        rows, basis, w, mask, half, bias = (
            self.rows, self.basis, self.w, self.mask, self.half, self.bias)
        top = self.rhs_shift
        # The sign bit of each biased field below ncols: clear iff negative.
        signs = bias & (1 << w * ncols) - 1
        while True:
            negative = signs & ~(rows[z] + bias)
            if not negative:
                return True
            enter = ((negative & -negative).bit_length() - 1) // w
            biased = [row + bias for row in rows]
            shift = w * enter
            col = [(row >> shift & mask) - half for row in biased]
            leave = None
            for i in range(len(basis)):
                a = col[i]
                if a <= 0:
                    continue
                rhs = (biased[i] >> top) - half
                # Ratios compared by cross-multiplication; ties go to the lower basis index.
                if leave is None or (rhs * best_a, basis[i]) < (best_rhs * a, basis[leave]):
                    leave, best_a, best_rhs = i, a, rhs
            if leave is None:
                return False
            self.pivot(leave, enter, col)


def _pack(values: Sequence[int], w: int) -> int:
    """Signed ``values`` as fields ``0, 1, ...`` of width ``w``."""
    packed = 0
    for v in reversed(values):
        packed = (packed << w) + v
    return packed


def _common_denominator(entries) -> int:
    """lcm of the denominators of int and Fraction entries."""
    try:
        return lcm(*(v.denominator for v in entries))
    except AttributeError:
        raise TypeError("LP entries must be int or Fraction") from None


def simplex_min(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """min c.x  s.t.  A x = b, x >= 0.  Returns (status, x, value).

    Entries are ints or Fractions, read through ``numerator`` and
    ``denominator`` as they are; any other type (a float, say) raises
    TypeError.  ``A`` must hold ``len(b)`` rows of ``len(c)`` entries,
    else ValueError.  ``x`` and ``value`` are Fractions.
    """
    m, n = len(A), len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError(f"LP shape mismatch: A must have len(b) = {len(b)} rows "
                         f"of len(c) = {n} entries")
    rows = [[*row, bi] for row, bi in zip(A, b)]
    if all(type(v) is int for v in c) and all(type(v) is int for row in rows for v in row):
        # Already integer rows: no denominators to clear.
        ints = [row if row[-1] >= 0 else [-v for v in row] for row in rows]
        costs = c
    else:
        scale = _common_denominator(v for row in rows for v in row)
        cscale = _common_denominator(c)
        ints = []
        for row in rows:
            sign = -1 if row[-1] < 0 else 1
            ints.append([sign * v.numerator * (scale // v.denominator) for v in row])
        costs = [v.numerator * (cscale // v.denominator) for v in c]
    # Squared row norms: each constraint row has its artificial 1, and the
    # phase-1 row, minus their sum, is bounded by Cauchy-Schwarz.  No minor
    # holds both objective rows, so only the larger one enters the bound.
    norms = [sum(map(mul, row, row)) + 1 for row in ints]
    objective = max(m * sum(norms), sum(map(mul, costs, costs)), 1)
    w = (isqrt(prod(norms) * objective) + 1).bit_length() + 2

    packed = [
        _pack(row[:-1], w) + (1 << w * (n + i)) + (row[-1] << w * (n + m))
        for i, row in enumerate(ints)
    ]
    # Phase-1 costs priced out against the artificial basis, then phase 2.
    phase1 = (_spread(1, w, m) << w * n) - sum(packed)
    tab = _Tableau(packed + [phase1, _pack(costs, w)], list(range(n, n + m)), w, n + m + 1)
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
    del tab.rows[m]  # the phase-1 row is not read again

    if not tab.optimize(m, n):
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab.rhs(i), tab.det)
    return "optimal", x, sum((v * x[j] for j, v in enumerate(c) if v), Fraction(0))


def dominating_combination(
    generators: Sequence[Sequence[Fraction]],
    target: Sequence[Fraction],
) -> list[Fraction] | None:
    """Convex weights on the generators dominating ``target``, or None.

    Solves the exact feasibility problem: lambda >= 0, sum(lambda) = 1,
    sum(lambda_i g_i) >= target component-wise.  A generator whose length
    is not the target's raises ValueError.
    """
    if not generators:
        return None
    dims = len(target)
    if any(len(g) != dims for g in generators):
        raise ValueError(f"every generator must have len(target) = {dims} coordinates")
    n = len(generators)
    A = []
    b = []
    for l in range(dims):
        # sum_i lambda_i g_i(l) - s_l = target(l)
        A.append([g[l] for g in generators] + [-int(j == l) for j in range(dims)])
        b.append(target[l])
    A.append([1] * n + [0] * dims)
    b.append(1)
    status, x, _ = simplex_min([0] * (n + dims), A, b)
    if status != "optimal":
        return None
    return x[:n]


def max_symmetric_scale(
    vectors: Sequence[Sequence[Fraction]],
    factor: Fraction,
) -> Fraction:
    """max a such that (a, ..., a) <= factor * (some convex combination).

    Vectors with no coordinates bound nothing, so they raise ValueError, as
    do vectors of differing lengths.
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
    A = []
    b = []
    for l in range(dims):
        row = [factor * v[l] for v in vectors]
        row.append(-1)
        row.extend(-int(j == l) for j in range(dims))
        A.append(row)
        b.append(0)
    A.append([1] * n + [0] * (dims + 1))
    b.append(1)
    c = [0] * n + [-1] + [0] * dims
    status, x, _ = simplex_min(c, A, b)
    if status != "optimal":
        raise AssertionError(f"symmetric-rate LP came back {status}")
    return x[n]
