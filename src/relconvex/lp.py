"""Exact linear programming over the rationals.

A small dense two-phase simplex solver that pivots fraction-free on Python
``int`` (Edmonds 1967; Bareiss 1968).  The constraint data are scaled once to
integers by the LCM of their denominators, and every pivot is one
:func:`relconvex.linalg.bareiss_step`, so each row of the tableau is the
rational tableau times the last pivot ``d > 0``.  ``Fraction`` values are
built only for the answer.  Bland's rule is used for both the entering and
the leaving variable, which guarantees termination without any numerical
tolerance; ratios are compared by cross-multiplying.  Since the tableau is
only ever scaled by positive factors, the rule sees the signs and ties of the
rational tableau.  Problems are given in standard form

    maximize c.x   subject to   A x = b,  x >= 0.

The solver is meant for the small, highly degenerate feasibility problems
that exact convex-hull membership produces (a handful of variables, exact
ties everywhere), not for large-scale optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import linalg

Row = list[int]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    objective: Optional[Fraction] = None


def _rationals(values: Sequence) -> list:
    """The values as ``int`` or ``Fraction``; only other types are converted."""
    return [v if type(v) in (int, Fraction) else Fraction(v) for v in values]


def _pivot(tab: list[Row], basis: list[int], r: int, c: int, d: int) -> int:
    """Pivot on the positive entry tab[r][c]; returns the new ``d``."""
    basis[r] = c
    return linalg.bareiss_step(tab, r, c, d)


def _run_simplex(tab: list[Row], basis: list[int], ncols: int, d: int) -> tuple[str, int]:
    """Bland-rule simplex loop on a tableau already in canonical form.

    The last row of ``tab`` holds d times the reduced costs for a
    maximization; its last entry is d times the negated objective value.
    Returns (OPTIMAL or UNBOUNDED, d).
    """
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for i in range(len(tab) - 1):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(tab, basis, leave, enter, d)


def maximize(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, all data rational."""
    rows = [_rationals(row) for row in A]
    rhs = _rationals(b)
    cost = _rationals(c)
    m = len(rows)
    n = len(cost)
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
    if len(rhs) != m:
        raise ValueError("rhs length does not match constraint count")

    # Phase one: artificial basis, maximize minus the artificial mass.
    # [A | b] is scaled to integers; the artificial identity stays at 1.
    scale = lcm(*(v.denominator for row in rows for v in row), *(v.denominator for v in rhs))
    tab: list[Row] = []
    for i in range(m):
        sign = -scale if rhs[i] < 0 else scale
        row = [sign * v.numerator // v.denominator for v in rows[i] + [rhs[i]]]
        art = [0] * m
        art[i] = 1
        tab.append(row[:n] + art + row[n:])
    basis = [n + i for i in range(m)]
    ncols = n + m
    tab.append([sum(col) for col in zip(*tab)] if m else [0] * (ncols + 1))
    tab[-1][n:ncols] = [0] * m

    status, d = _run_simplex(tab, basis, ncols, 1)
    assert status == OPTIMAL  # phase-one objective is bounded by 0
    if tab[-1][-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificial variables out of the basis.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = next((j for j in range(n) if tab[i][j]), -1)
            if piv_col >= 0:
                if tab[i][piv_col] < 0:  # keep d > 0, so every later sign holds
                    tab[i] = [-v for v in tab[i]]
                d = _pivot(tab, basis, i, piv_col, d)
                keep.append(i)
            # else: redundant row, drop it below
        else:
            keep.append(i)
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase two: c scaled to integers, reduced costs d * c - sum c_B * row.
    cscale = lcm(*(v.denominator for v in cost))
    cint = [v.numerator * (cscale // v.denominator) for v in cost]
    obj = [d * v for v in cint] + [0]
    for row, bv in zip(tab, basis):
        f = cint[bv]
        if f:
            obj = [a - f * p for a, p in zip(obj, row)]
    tab.append(obj)
    status, d = _run_simplex(tab, basis, n, d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [Fraction(0)] * n
    for row, bv in zip(tab, basis):
        x[bv] = Fraction(row[-1], d)
    return LPResult(OPTIMAL, x, Fraction(-tab[-1][-1], d * cscale))
