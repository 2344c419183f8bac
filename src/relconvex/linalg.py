"""Exact linear algebra on small dense systems.

All elimination runs fraction-free on Python ``int`` in one step,
:func:`bareiss_step` (Bareiss's integer-preserving pivot), which both
:func:`rref_int` and the simplex in :mod:`relconvex.lp` apply.  Every
Carathéodory question reads its coordinates off one :func:`span_coordinates`.
:func:`rref` clears denominators row by row, which leaves the reduced row
echelon form unchanged, and builds ``Fraction`` values only on the way out.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence


def bareiss_step(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Pivot the integer rows on ``rows[r][c]`` in place; returns the pivot.

    Every other row becomes (p * row - f * rows[r]) // d, where p is the
    pivot, f the row's entry in column c and d the previous pivot; by
    Sylvester's identity the division is exact (Bareiss 1968).  A row with
    f == 0 is left as it is when p == d.
    """
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and (f or p != d):
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
    return p


def rref_int(matrix: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivot column indices, det), where det is the last pivot:
    the determinant of the pivot rows and columns, or 1 when there is no
    pivot.  Each step is one :func:`bareiss_step`.  At the end every pivot
    entry equals ``det``, the other entries of a pivot column are zero, rows
    past the rank are zero, and the reduced row echelon form is
    ``rows / det``.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    pivots: list[int] = []
    det = 1
    if not rows:
        return rows, pivots, det
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        det = bareiss_step(rows, r, c, det)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, det


def span_coordinates(basis: Sequence[Sequence[int]],
                     queries: Sequence[Sequence[int]]) -> Optional[list[Optional[list[int]]]]:
    """Per query column: None off the span of the basis columns, else its
    coordinates over them times ``|det|``; None for a dependent basis.

    One :func:`rref_int` of the basis then the query columns.  The basis is
    independent iff its columns are the first pivots, and a query is in
    their span iff its column is zero past the basis rows; its coordinates
    are then ``red[r][col] / det``, as the rows stay ``rref * det``.
    """
    size = len(basis)
    red, pivots, det = rref_int(zip(*basis, *queries))
    if pivots[:size] != list(range(size)):
        return None
    sign = 1 if det > 0 else -1
    return [None if any(red[r][col] for r in range(size, len(red)))
            else [sign * red[r][col] for r in range(size)]
            for col in range(size, size + len(queries))]


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    scaled = []
    for row in matrix:
        m = lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (m // v.denominator) for v in row])
    rows, pivots, det = rref_int(scaled)
    return [[Fraction(v, det) for v in row] for row in rows], pivots

