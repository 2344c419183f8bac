"""Brute-force reference versions that the tests compare production code
against.  They live here, not in the package, because nothing in the
package calls them."""

from fractions import Fraction
from typing import Sequence

from relconvex import lp
from relconvex.geometry import Point, VPolytope


def supports_face(poly: VPolytope, indices: frozenset[int]) -> bool:
    """LP certificate that a vertex subset is a face: a linear functional
    that is constant on the subset and strictly smaller elsewhere."""
    verts = poly.vertices
    inside = sorted(indices)
    outside = [i for i in range(len(verts)) if i not in indices]
    if not inside:
        return False
    if not outside:
        return True
    n = poly.dim_ambient
    # columns: w+ (n), w- (n), t+, t-, s, surplus per outside vertex, cap slack
    ncols = 2 * n + 2 + 1 + len(outside) + 1
    rows = []
    rhs = []

    def functional_cols(p: Point, sign: int):
        row = [Fraction(0)] * ncols
        for k in range(n):
            row[k] = Fraction(sign) * p[k]
            row[n + k] = Fraction(-sign) * p[k]
        row[2 * n] = Fraction(-sign)
        row[2 * n + 1] = Fraction(sign)
        return row

    for i in inside:
        rows.append(functional_cols(verts[i], 1))
        rhs.append(Fraction(0))
    for t, i in enumerate(outside):
        row = functional_cols(verts[i], -1)
        row[2 * n + 2] = Fraction(-1)
        row[2 * n + 2 + 1 + t] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
    cap = [Fraction(0)] * ncols
    cap[2 * n + 2] = Fraction(1)
    cap[-1] = Fraction(1)
    rows.append(cap)
    rhs.append(Fraction(1))
    c = [Fraction(0)] * ncols
    c[2 * n + 2] = Fraction(1)
    res = lp.maximize(rows, rhs, c)
    return res.status == lp.OPTIMAL and res.objective > 0


def rref_reference(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan on ``Fraction``; returns
    (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots
