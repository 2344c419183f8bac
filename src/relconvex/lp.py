"""Exact linear programming over the rationals.

A small dense two-phase simplex solver working entirely in
``fractions.Fraction``.  Bland's rule is used for both the entering and the
leaving variable, which guarantees termination without any numerical
tolerance.  Problems are given in standard form

    maximize c.x   subject to   A x = b,  x >= 0.

The solver is meant for the small, highly degenerate feasibility problems
that exact convex-hull membership produces (a handful of variables, exact
ties everywhere), not for large-scale optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    objective: Optional[Fraction] = None


def _as_fraction_rows(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(v) for v in row] for row in rows]


def _pivot(rows: list[Row], obj: Row, basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    inv = Fraction(1) / piv
    rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * p for a, p in zip(row, prow)]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [a - f * p for a, p in zip(obj, prow)]
    basis[r] = c


def _run_simplex(rows: list[Row], obj: Row, basis: list[int], ncols: int) -> str:
    """Bland-rule simplex loop on a tableau already in canonical form.

    ``obj`` holds reduced costs for a maximization; the last entry is the
    negated objective value.  Returns OPTIMAL or UNBOUNDED.
    """
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, obj, basis, leave, enter)


def maximize(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, all data rational."""
    rows = _as_fraction_rows(A)
    rhs = [Fraction(v) for v in b]
    cost = [Fraction(v) for v in c]
    m = len(rows)
    n = len(cost)
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
    if len(rhs) != m:
        raise ValueError("rhs length does not match constraint count")

    # Phase one: artificial basis, maximize minus the artificial mass.
    tab: list[Row] = []
    for i in range(m):
        row = list(rows[i])
        if rhs[i] < 0:
            row = [-v for v in row]
            rhs_i = -rhs[i]
        else:
            rhs_i = rhs[i]
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [rhs_i])
    basis = [n + i for i in range(m)]
    ncols = n + m
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = sum(tab[i][j] for i in range(m))
    obj[-1] = sum(tab[i][-1] for i in range(m))

    status = _run_simplex(tab, obj, basis, ncols)
    assert status == OPTIMAL  # phase-one objective is bounded by 0
    if obj[-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificial variables out of the basis.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = -1
            for j in range(n):
                if tab[i][j] != 0:
                    piv_col = j
                    break
            if piv_col >= 0:
                _pivot(tab, obj, basis, i, piv_col)
                keep.append(i)
            # else: redundant row, drop it below
        else:
            keep.append(i)
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase two.
    obj = cost + [Fraction(0)]
    for i, bv in enumerate(basis):
        if obj[bv] != 0:
            f = obj[bv]
            obj = [a - f * p for a, p in zip(obj, tab[i])]
    status = _run_simplex(tab, obj, basis, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(cost, x))
    return LPResult(OPTIMAL, x, value)
