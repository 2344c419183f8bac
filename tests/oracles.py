"""Brute-force reference versions that the tests compare production code
against.  They live here, not in the package, because nothing in the
package calls them."""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from relconvex import linalg, lp
from relconvex.analysis import (
    ANTI_EXCHANGE_VIOLATION,
    BIATOMICITY_VIOLATION,
    DISTRIBUTIVITY_VIOLATION,
    EMBEDDING_DEFECT,
    M3_SUBLATTICE,
    SDV_VIOLATION,
    WEAK_ATOM_VIOLATION,
    Witness,
)
from relconvex.boolsub import check_simplex, full_mask
from relconvex.closure import FiniteGround
from relconvex.embedding import _shrink_labeled
from relconvex.errors import ConstructionError, InputError
from relconvex.geometry import (
    MixedGenerators,
    Point,
    Segment,
    VPolytope,
    interpolate,
    segment_hull_param_intervals,
    sub,
)
from relconvex.intervals import Interval, intersect_unions, union_intervals
from relconvex.lattice import FiniteLattice, NotALatticeError
from relconvex.segments import SubsegmentSet, seg_meet


def is_meet_closed(family) -> bool:
    fam = set(family)
    return all(a & b in fam for a, b in itertools.combinations(fam, 2))


def iter_meet_subsemilattices(n: int):
    """All meet-closed families of subsets of {0..n}, the empty family
    included, in increasing order of the family code: every one of the
    2^(2^(n+1)) codes is tested."""
    size = 1 << (n + 1)
    for code in range(1 << size):
        members = [m for m in range(size) if code >> m & 1]
        if is_meet_closed(members):
            yield frozenset(members)


def family_code(family) -> int:
    """Bit t set for each member t of the family."""
    code = 0
    for m in family:
        code |= 1 << m
    return code


def all_families_lattice(n: int) -> FiniteLattice:
    """The lattice of all meet-closed families of subsets of {0..n}, the
    ones without the full set included, labelled by family code."""
    return FiniteLattice.from_closed_masks(
        [family_code(f) for f in iter_meet_subsemilattices(n)])


def meet_closure(family) -> frozenset[int]:
    """Close a family of subset masks under pairwise intersection."""
    fam = set(family)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(fam), 2):
            m = a & b
            if m not in fam:
                fam.add(m)
                changed = True
    return frozenset(fam)


def psi(t: int, simplex: VPolytope) -> frozenset[int]:
    """Image of a single subset as vertex masks of open faces: the face on
    the complementary vertices (no face for the full subset)."""
    n = check_simplex(simplex)
    full = full_mask(n)
    if t & ~full:
        raise InputError("subset outside the base set")
    return frozenset({full ^ t}) - {0}


def phi(family: frozenset[int], simplex: VPolytope) -> frozenset[int]:
    """Union of psi over a meet-closed family."""
    n = check_simplex(simplex)
    if not is_meet_closed(family):
        raise InputError("family is not closed under intersection")
    full = full_mask(n)
    return frozenset(full ^ t for t in family if t != full)


def face_support(q: Point, simplex: VPolytope) -> Optional[int]:
    """Mask of the positive barycentric coordinates of q (the open face
    holding q) by a linear solve, or None when q lies outside the simplex."""
    coords = affine_coordinates(q, simplex.vertices)
    if coords is None or any(c < 0 for c in coords):
        return None
    return sum(1 << i for i, c in enumerate(coords) if c > 0)


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


def _pivot(rows, obj, basis, r: int, c: int) -> None:
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


def _run_simplex(rows, obj, basis, ncols: int) -> str:
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
            return lp.OPTIMAL
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
            return lp.UNBOUNDED
        _pivot(rows, obj, basis, leave, enter)


def maximize_reference(A: Sequence[Sequence], b: Sequence, c: Sequence) -> lp.LPResult:
    """The two-phase Bland simplex pivoting on ``Fraction``: maximize c.x
    subject to A x = b, x >= 0.  ``lp.maximize`` must take the same pivots
    and give the same answer."""
    rows = [[Fraction(v) for v in row] for row in A]
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
    tab = []
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
    assert status == lp.OPTIMAL  # phase-one objective is bounded by 0
    if obj[-1] != 0:
        return lp.LPResult(lp.INFEASIBLE)

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
    if status == lp.UNBOUNDED:
        return lp.LPResult(lp.UNBOUNDED)

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(cost, x))
    return lp.LPResult(lp.OPTIMAL, x, value)


def witness_table_reference(ground: FiniteGround) -> list[list[int]]:
    """Each point's inclusion-minimal Caratheodory witnesses by one integer
    elimination per (point, candidate subset); ``FiniteGround._witness_table``
    must give the same lists in the same order."""
    scale = lcm(*(c.denominator for p in ground.points for c in p))
    pts = [[c.numerator * (scale // c.denominator) for c in p] + [1] for p in ground.points]
    table: list[list[int]] = []
    for i, q in enumerate(pts):
        others = [j for j in range(ground.n) if j != i]
        found: list[int] = []
        for size in range(1, ground.dim + 2):
            for subset in itertools.combinations(others, size):
                mask = 0
                for j in subset:
                    mask |= 1 << j
                if any(m & mask == m for m in found):
                    continue
                # Columns (p_j, 1) then (q, 1): the subset is affinely
                # independent iff its `size` columns are pivots, q lies in
                # its affine hull iff q's column is no pivot, and then the
                # barycentric coordinates are red[r][size] / det.
                red, pivots, det = linalg.rref_int(zip(*(pts[j] for j in subset), q))
                if pivots[:size + 1] != list(range(size)):
                    continue
                if all(red[r][size] * det >= 0 for r in range(size)):
                    found.append(mask)
        table.append(found)
    return table


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


def solve_reference(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve M x = rhs by ``rref_reference``: (particular, nullspace basis),
    or None when inconsistent.  The particular solution is zero on the free
    columns, and each basis vector is 1 on its own free column and 0 on the
    others."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    red, pivots = rref_reference([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    part = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        part[c] = red[i][-1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -red[i][f]
        basis.append(vec)
    return part, basis


def affine_coordinates(q: Point, pts: Sequence[Point]):
    """Affine combination q = sum(l_i * p_i), sum(l_i) = 1, by
    ``solve_reference`` (free coordinates zero), or None."""
    rows = [[p[k] for p in pts] for k in range(len(q))] + [[Fraction(1)] * len(pts)]
    sol = solve_reference(rows, list(q) + [Fraction(1)])
    return None if sol is None else sol[0]


def affine_span_dim(pts: Sequence[Point]) -> int:
    """Dimension of the affine hull: the rank of the differences from the
    first point, by ``rref_reference``."""
    return len(rref_reference([sub(p, pts[0]) for p in pts[1:]])[1])


def caratheodory_reference(q: Point, pts: Sequence[Point]):
    """``caratheodory_witness``'s search in two reference steps per subset:
    its affine independence by ``rref_reference``, then q's coordinates by
    ``solve_reference``.  The first (subset, coords) with nonnegative
    coordinates, or None."""
    uniq = sorted(set(pts))
    for size in range(1, len(q) + 2):
        for subset in itertools.combinations(uniq, size):
            if affine_span_dim(subset) != size - 1:
                continue
            coords = affine_coordinates(q, subset)
            if coords is not None and all(c >= 0 for c in coords):
                return subset, coords
    return None


# ---------------------------------------------------------------------------
# point sets of intervals


def interval_contains(iv: Interval, v: Fraction) -> bool:
    """Whether the parameter v lies in the interval, by its endpoints."""
    if v < iv.lo or v > iv.hi:
        return False
    if v == iv.lo and not iv.lo_closed:
        return False
    if v == iv.hi and not iv.hi_closed:
        return False
    return True


def pieces_contain(pieces: Sequence[Interval], v: Fraction) -> bool:
    return any(interval_contains(iv, v) for iv in pieces)


# ---------------------------------------------------------------------------
# carrier-overlap algebra: the canonical form of a subsegment set computed by
# mapping pieces between carriers through their parametric overlaps


@dataclass(frozen=True)
class _Overlap:
    kind: str                                  # "point" or "interval"
    t_self: Optional[Fraction] = None          # point: parameter on this carrier
    t_other: Optional[Fraction] = None
    span: Optional[tuple] = None               # interval: (lo, hi) on this carrier
    shift: Optional[Fraction] = None           # interval map: u = shift + scale * t
    scale: Optional[Fraction] = None


def _carrier_overlap(si: Segment, sj: Segment) -> Optional[_Overlap]:
    """Intersection of the closed supports of two carriers, as parameters."""
    di, dj = sub(si.b, si.a), sub(sj.b, sj.a)
    n = len(di)
    rows = [[di[k], -dj[k]] for k in range(n)]
    rhs = [sj.a[k] - si.a[k] for k in range(n)]
    sol = solve_reference(rows, rhs)
    if sol is None:
        return None
    part, null = sol
    if not null:
        t, u = part
        if 0 <= t <= 1 and 0 <= u <= 1:
            return _Overlap("point", t_self=t, t_other=u)
        return None
    # collinear supports: express sj's endpoints in si parameters
    def param_on_i(x: Point) -> Optional[Fraction]:
        cols = [[di[k]] for k in range(n)]
        s = solve_reference(cols, [x[k] - si.a[k] for k in range(n)])
        return None if s is None else s[0][0]

    ta = param_on_i(sj.a)
    tb = param_on_i(sj.b)
    if ta is None or tb is None:
        return None
    lo, hi = min(ta, tb), max(ta, tb)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return None
    scale = 1 / (tb - ta)
    shift = -ta * scale
    if lo == hi:
        return _Overlap("point", t_self=lo, t_other=shift + scale * lo)
    return _Overlap("interval", span=(lo, hi), shift=shift, scale=scale)


def carrier_overlaps(segments: Sequence[Segment]) -> dict:
    """Every ordered pair of carriers whose closed supports meet."""
    out = {}
    for i, j in itertools.permutations(range(len(segments)), 2):
        ov = _carrier_overlap(segments[i], segments[j])
        if ov is not None:
            out[(i, j)] = ov
    return out


def overlapping_pair(segments: Sequence[Segment]):
    """(ok, first pair i < j of carriers whose closed supports meet)."""
    for i, j in itertools.combinations(range(len(segments)), 2):
        ov = _carrier_overlap(segments[i], segments[j])
        if ov is not None:
            return False, (i, j)
    return True, None


def propagated_pieces(segments: Sequence[Segment], pieces) -> tuple:
    """Canonical per-carrier pieces: clip each interval to its carrier's
    domain, then copy every piece onto each overlapping carrier until
    nothing changes."""
    k = len(segments)
    cleaned = []
    for idx, ivs in enumerate(pieces):
        dom = segments[idx].domain()
        clipped = []
        for iv in ivs:
            c = iv.intersect(dom)
            if c is not None:
                clipped.append(c)
        cleaned.append(union_intervals(clipped))
    pieces = [list(p) for p in cleaned]
    overlaps = carrier_overlaps(segments)
    for _ in range(2 * k * k + 2):
        changed = False
        for (i, j), ov in overlaps.items():
            dom_j = segments[j].domain()
            current_i = pieces[i]
            if ov.kind == "point":
                t, u = ov.t_self, ov.t_other
                if pieces_contain(current_i, t) and interval_contains(dom_j, u):
                    if not pieces_contain(pieces[j], u):
                        pieces[j] = list(union_intervals(pieces[j] + [Interval.point(u)]))
                        changed = True
            else:
                lo, hi = ov.span
                window = Interval(lo, hi)
                mapped = []
                for iv in current_i:
                    c = iv.intersect(window)
                    if c is None:
                        continue
                    u1 = ov.shift + ov.scale * c.lo
                    u2 = ov.shift + ov.scale * c.hi
                    if u1 <= u2:
                        m = Interval(u1, u2, c.lo_closed, c.hi_closed)
                    else:
                        m = Interval(u2, u1, c.hi_closed, c.lo_closed)
                    md = m.intersect(dom_j)
                    if md is not None:
                        mapped.append(md)
                if mapped:
                    merged = union_intervals(list(pieces[j]) + mapped)
                    if merged != tuple(pieces[j]):
                        pieces[j] = list(merged)
                        changed = True
        if not changed:
            break
    else:
        raise InputError("carrier propagation failed to stabilize")
    return tuple(tuple(p) for p in pieces)


def mask_tables_reference(masks: Sequence[int]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Closed sets in ``(popcount, mask)`` order with their join and meet
    tables from bitmask arithmetic: join is the first closed superset of the
    union, meet is the closed set equal to the intersection."""
    order = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    E = np.array(order, dtype=np.int64)
    L = len(order)
    val_order = np.argsort(E, kind="stable")
    sorted_vals = E[val_order]
    join = np.empty((L, L), dtype=np.int32)
    meet = np.empty((L, L), dtype=np.int32)
    for i in range(L):
        unions = E[i] | E
        sup = (E[None, :] & unions[:, None]) == unions[:, None]
        if not sup.any(axis=1).all():
            raise NotALatticeError("union without closed superset")
        join[i] = np.argmax(sup, axis=1)
        inter = E[i] & E
        pos = np.searchsorted(sorted_vals, inter)
        if (pos >= L).any() or (sorted_vals[np.minimum(pos, L - 1)] != inter).any():
            raise NotALatticeError("intersection of closed sets not closed")
        meet[i] = val_order[pos]
    return order, join, meet


def closed_masks_generic_reference(masks: Sequence[int]) -> FiniteLattice:
    """The lattice of a closure system with tables from the generic up-set
    search, then checked meet by meet against intersection; a family that
    is no closure system raises the first fault's NotALatticeError."""
    order = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    E = np.array(order, dtype=np.int64)
    lat = order_lattice(order, (E[None, :] & E[:, None]) == E[:, None])
    if (E[lat.meet_table] != E[:, None] & E).any():
        raise NotALatticeError("intersection of closed sets not closed")
    return lat


def cover_order_reference(n: int, covers: Sequence[tuple[int, int]]) -> np.ndarray:
    """leq of the reflexive transitive closure of index cover pairs, by
    Warshall's loop: one n x n AND per intermediate element."""
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        leq[lo, hi] = True
    for k in range(n):
        leq |= leq[:, k, None] & leq[k]
    return leq


def inclusion_order_reference(masks: Sequence[int]) -> np.ndarray:
    """leq[i, j] iff masks[i] is a subset of masks[j], pair by pair on
    Python ints; a partial order when the masks are distinct."""
    return np.array([[a & b == a for b in masks] for a in masks], dtype=bool)


def order_lattice(labels: Sequence, leq: np.ndarray) -> FiniteLattice:
    """The lattice of a partial order matrix, built from every comparable
    pair as a cover: their reflexive transitive closure is ``leq`` again, so
    the generic join and meet search runs on ``leq`` itself."""
    return FiniteLattice.from_cover_pairs(labels, list(zip(*np.nonzero(leq))))


def lub_tables_reference(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join and meet tables of an order matrix by an unpacked search: the
    first common upper bound in a linear extension, checked to lie below
    every other, and dually for meets."""
    n = len(leq)
    order = np.argsort(leq.sum(axis=0), kind="stable")
    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    geq = leq.T
    for i in range(n):
        ub = leq[i][None, :] & leq       # row j: upper bounds of {i, j}
        if not ub.any(axis=1).all():
            raise NotALatticeError("pair without upper bound")
        cand = order[np.argmax(ub[:, order], axis=1)]
        if (ub & ~leq[cand]).any():
            raise NotALatticeError("pair without least upper bound")
        join[i] = cand
        lb = geq[i][None, :] & geq
        if not lb.any(axis=1).all():
            raise NotALatticeError("pair without lower bound")
        cand = order[::-1][np.argmax(lb[:, order[::-1]], axis=1)]
        if (lb & ~geq[cand]).any():
            raise NotALatticeError("pair without greatest lower bound")
        meet[i] = cand
    return join, meet


def p_point_reference(base: VPolytope, i: int, A: frozenset, j: int, ratio: Fraction) -> Point:
    """Unique intersection of the edge [p_i, p_j] with the affine hull of the
    shrunken vertices of A minus j, found by a linear solve; the closed form
    ``embedding.p_point`` must give the same point."""
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise InputError("p-point requires a ratio strictly inside (0, 1)")
    if i == j or i not in A or j not in A or len(A) < 2:
        raise InputError("p-point needs distinct i, j inside A with |A| >= 2")
    verts = base.vertices
    labeled = {k: verts[k] for k in sorted(A)}
    shrunk = _shrink_labeled(labeled, 1 - ratio)
    hull_pts = [shrunk[k] for k in sorted(A - {j})]
    pi, pj = verts[i], verts[j]
    direction = sub(pj, pi)
    n = base.dim_ambient
    ncols = len(hull_pts) + 1
    rows = []
    rhs = []
    for k in range(n):
        rows.append([q[k] for q in hull_pts] + [-direction[k]])
        rhs.append(pi[k])
    rows.append([Fraction(1)] * len(hull_pts) + [Fraction(0)])
    rhs.append(Fraction(1))
    sol = solve_reference(rows, rhs)
    if sol is None:
        raise ConstructionError(f"edge [{i},{j}] misses the shrunken hull of {sorted(A)}")
    part, null = sol
    if any(vec[ncols - 1] != 0 for vec in null):
        raise ConstructionError(f"intersection of edge [{i},{j}] with hull not unique")
    tau = part[ncols - 1]
    if not 0 < tau < 1:
        raise ConstructionError("p-point fell outside the open edge")
    return interpolate(pi, pj, tau)


def jsd_scan_reference(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """x∨y = x∨z implies x∨y = x∨(y∧z), for all triples."""
    J, M = lat.join_table, lat.meet_table
    for x in range(lat.n):
        jx = J[x]
        eq = jx[:, None] == jx[None, :]
        rhs = jx[M]
        viol = eq & (rhs != jx[:, None])
        if viol.any():
            y, z = map(int, np.argwhere(viol)[0])
            return False, Witness(SDV_VIOLATION, [x, y, z],
                                  {"roles": ["x", "y", "z"]})
    return True, None


def distributive_reference(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """x∨(y∧z) = (x∨y)∧(x∨z) for all triples."""
    J, M = lat.join_table, lat.meet_table
    for x in range(lat.n):
        jx = J[x]
        lhs = jx[M]
        rhs = M[jx[:, None], jx[None, :]]
        viol = lhs != rhs
        if viol.any():
            y, z = map(int, np.argwhere(viol)[0])
            return False, Witness(DISTRIBUTIVITY_VIOLATION, [x, y, z],
                                  {"roles": ["x", "y", "z"]})
    return True, None


def weak_atom_reference(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """For atoms y, z: x∨y = x∨z forces y = z or y, z both below x."""
    atoms = lat.atoms()
    if not atoms:
        return True, None
    J, leq = lat.join_table, lat.leq
    at = np.array(atoms)
    for x in range(lat.n):
        jxa = J[x, at]
        below = leq[at, x]
        eq = jxa[:, None] == jxa[None, :]
        ok = below[:, None] & below[None, :]
        viol = eq & ~ok & ~np.eye(len(at), dtype=bool)
        if viol.any():
            i, j = map(int, np.argwhere(viol)[0])
            return False, Witness(WEAK_ATOM_VIOLATION, [x, int(at[i]), int(at[j])],
                                  {"roles": ["x", "y", "z"]})
    return True, None


def biatomic_reference(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """Every atom below y∨z (y, z nonzero) is below a join of atoms
    y' <= y, z' <= z."""
    atoms = lat.atoms()
    if not atoms:
        return True, None
    J, leq = lat.join_table, lat.leq
    at = np.array(atoms)
    bot = lat.bottom()
    nonzero = np.ones(lat.n, dtype=bool)
    nonzero[bot] = False
    BM = leq[at, :].T.astype(np.float64)          # BM[y, k]: atom k below y
    JA = J[np.ix_(at, at)]
    for x in atoms:
        P = leq[x][JA].astype(np.float64)         # P[k, l]: x <= a_k ∨ a_l
        Q = (BM @ P @ BM.T) > 0
        need = leq[x, J] & nonzero[:, None] & nonzero[None, :]
        viol = need & ~Q
        if viol.any():
            y, z = map(int, np.argwhere(viol)[0])
            return False, Witness(BIATOMICITY_VIOLATION, [int(x), y, z],
                                  {"roles": ["x", "y", "z"]})
    return True, None


def lower_cover_of(lat: FiniteLattice, i: int) -> int:
    """The unique lower cover of a join-irreducible element."""
    cm = lat.covers_matrix()
    lows = np.nonzero(cm[:, i])[0]
    if len(lows) != 1:
        raise InputError(f"element {i} is not join-irreducible")
    return int(lows[0])


def d_relation_reference(lat: FiniteLattice) -> dict[int, list[int]]:
    """Directed graph a -> b on join-irreducibles: some p gives a <= b∨p
    while a is not below c∨p for any c < b (equivalently for the unique
    lower cover of b)."""
    jis = lat.join_irreducibles()
    J, leq = lat.join_table, lat.leq
    lower = {b: lower_cover_of(lat, b) for b in jis}
    out: dict[int, list[int]] = {a: [] for a in jis}
    for a in jis:
        for b in jis:
            if a == b:
                continue
            cond = leq[a, J[b]] & ~leq[a, J[lower[b]]]
            if cond.any():
                out[a].append(b)
    return out


def find_d_cycle_reference(graph: dict[int, list[int]]) -> Optional[list[int]]:
    """A directed cycle in the relation, as a node list (first == last)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph}
    parent: dict[int, int] = {}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(graph[root]))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def find_m3_reference(lat: FiniteLattice) -> Optional[Witness]:
    """Five elements forming a diamond sublattice, or None."""
    J, M, leq = lat.join_table, lat.meet_table, lat.leq
    incomp = ~leq & ~leq.T
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            if not incomp[a, b]:
                continue
            j, m = J[a, b], M[a, b]
            cand = (incomp[a] & incomp[b]
                    & (J[a] == j) & (J[b] == j)
                    & (M[a] == m) & (M[b] == m))
            cand[: b + 1] = False
            if cand.any():
                c = int(np.argmax(cand))
                return Witness(M3_SUBLATTICE, [int(m), a, b, c, int(j)],
                               {"roles": ["bottom", "a", "b", "c", "top"]})
    return None


def map_defects_reference(source: FiniteLattice, target: FiniteLattice,
                          image: Sequence[int]) -> dict[str, Optional[Witness]]:
    """The embedding checks against an enumerated target: ``image[i]`` is the
    target index of source element i, and the first injectivity, join and
    meet defect comes from comparing the two lattices' tables on all pairs."""
    defects: dict[str, Optional[Witness]] = {}
    seen: dict[int, int] = {}
    for i, t in enumerate(image):
        if t in seen:
            defects["not-injective"] = Witness(EMBEDDING_DEFECT, [seen[t], i],
                                               {"reason": "not-injective"})
            break
        seen[t] = i
    else:
        defects["not-injective"] = None
    img = np.array(image, dtype=np.int32)
    for reason, src, tgt in (
            ("join-not-preserved", source.join_table, target.join_table),
            ("meet-not-preserved", source.meet_table, target.meet_table)):
        ok = img[src] == tgt[img[:, None], img[None, :]]
        defects[reason] = None
        if not ok.all():
            a, b = map(int, np.argwhere(~ok)[0])
            defects[reason] = Witness(EMBEDDING_DEFECT, [a, b], {"reason": reason})
    return defects


def dumps_reference(data: dict, default=None) -> str:
    """json's own text; default=np.ndarray.tolist lets it read arrays."""
    return json.dumps(data, indent=2, sort_keys=True, default=default) + "\n"


def anti_exchange_reference(operator, closed: Optional[Sequence[int]] = None
                            ) -> tuple[bool, Optional[Witness]]:
    """The anti-exchange axiom by its pair scan: for each closed A, the
    first x < y outside A with x in cl(A+y) and y in cl(A+x)."""
    n = operator.n
    if closed is None:
        closed = operator.enumerate_closed_masks()
    for A in closed:
        added = [operator.closure_mask(A | (1 << y)) if not A >> y & 1 else 0
                 for y in range(n)]
        for x in range(n):
            if A >> x & 1:
                continue
            for y in range(x + 1, n):
                if A >> y & 1:
                    continue
                if added[y] >> x & 1 and added[x] >> y & 1:
                    return False, Witness(
                        ANTI_EXCHANGE_VIOLATION,
                        [A, x, y],
                        {"roles": ["closed-set-mask", "x", "y"]})
    return True, None


def face_restriction_reference(y, face_vertices: Sequence[Point]) -> bool:
    """hull(Y) ∩ F = hull(Y ∩ F) for a subsegment set Y, carrier by carrier:
    the hull trace of Y cut to F's trace against the hull trace of Y ∩ F,
    as raw interval lists."""
    ygens = y.as_generators()
    fgens = MixedGenerators(points=tuple(face_vertices))
    on_face = [segment_hull_param_intervals(c, fgens) for c in y.ground.segments]
    face_trace = SubsegmentSet(y.ground, on_face, _canonical=True)
    yf_gens = seg_meet(y, face_trace).as_generators()
    for carrier, trace in zip(y.ground.segments, on_face):
        if ygens is None:
            lhs = ()
        else:
            lhs = intersect_unions(segment_hull_param_intervals(carrier, ygens), trace)
        rhs = (() if yf_gens is None
               else segment_hull_param_intervals(carrier, yf_gens))
        if tuple(lhs) != tuple(rhs):
            return False
    return True
