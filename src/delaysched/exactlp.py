"""Small exact simplex, plus the two queries built on it.

The tableau is fraction-free.  Entries are read as int or Fraction
through their numerator and denominator, with no conversion; ``A`` and
``b`` are scaled by one common denominator, and each pivot is an integer
Edmonds/Bareiss step whose division by the previous pivot is exact.  The
true tableau is the integer one over ``det``, which every basic column
holds in its own row.  Both objective rows are carried in the tableau.
Bland's rule guarantees termination; :class:`fractions.Fraction` appears
only in the solution.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = ["simplex_min", "dominating_combination", "max_symmetric_scale"]


def _pivot(tab, basis, r, s):
    """Integer pivot on ``tab[r][s]``, keeping ``det`` positive."""
    det, piv, prow = tab[r][basis[r]], tab[r][s], tab[r]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[s]
        if f:
            tab[i] = [(piv * a - f * b) // det for a, b in zip(row, prow)]
        elif piv != det:  # with f = 0 the step only scales by piv / det
            tab[i] = [piv * a // det for a in row]
    basis[r] = s
    if piv < 0:
        tab[:] = [[-a for a in row] for row in tab]


def _optimize(tab, basis, z, ncols) -> bool:
    """Bland-rule sweep on objective row ``tab[z]``; False means unbounded."""
    while True:
        enter = next((j for j in range(ncols) if tab[z][j] < 0), None)
        if enter is None:
            return True
        leave = None
        for i in range(len(basis)):
            a = tab[i][enter]
            # Ratios compared by cross-multiplication; ties go to the lower basis index.
            if a > 0 and (leave is None or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        if leave is None:
            return False
        _pivot(tab, basis, leave, enter)


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
    TypeError.  ``x`` and ``value`` are Fractions.
    """
    m, n = len(A), len(c)
    rows = [[*row, bi] for row, bi in zip(A, b)]
    scale = _common_denominator(v for row in rows for v in row)
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        ints = [sign * v.numerator * (scale // v.denominator) for v in row]
        tab.append(ints[:-1] + [int(j == i) for j in range(m)] + ints[-1:])
    # Phase-1 costs priced out against the artificial basis, then phase 2.
    phase1 = [-sum(col) for col in zip(*tab, [0] * (n + m + 1))]
    phase1[n:n + m] = [0] * m
    cscale = _common_denominator(c)
    phase2 = [v.numerator * (cscale // v.denominator) for v in c] + [0] * (m + 1)
    tab += [phase1, phase2]
    basis = list(range(n, n + m))

    _optimize(tab, basis, m, n + m)
    if tab[m][-1] != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            s = next((j for j in range(n) if tab[i][j] != 0), None)
            if s is not None:
                _pivot(tab, basis, i, s)

    if not _optimize(tab, basis, m + 1, n):
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], tab[i][basis[i]])
    return "optimal", x, sum((v * x[j] for j, v in enumerate(c) if v), Fraction(0))


def dominating_combination(
    generators: Sequence[Sequence[Fraction]],
    target: Sequence[Fraction],
) -> list[Fraction] | None:
    """Convex weights on the generators dominating ``target``, or None.

    Solves the exact feasibility problem: lambda >= 0, sum(lambda) = 1,
    sum(lambda_i g_i) >= target component-wise.
    """
    if not generators:
        return None
    dims = len(target)
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
    """max a such that (a, ..., a) <= factor * (some convex combination)."""
    if not vectors:
        return Fraction(0)
    dims = len(vectors[0])
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
