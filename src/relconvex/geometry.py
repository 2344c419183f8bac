"""Exact rational convex geometry.

Points are tuples of ``Fraction``; every predicate below is decided exactly,
either by the exact simplex solver in :mod:`relconvex.lp` or by linear
algebra: a polytope's dimension and facet normals come from one
:func:`relconvex.linalg.rref`, a Carathéodory candidate's coordinates from
one :func:`relconvex.linalg.span_coordinates`.  Openness (a segment missing
an endpoint, the relative interior of a face) is handled by strict linear
programming: all strict inequalities share one slack variable which is then
maximized, so strict feasibility is equivalent to a positive optimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from . import linalg, lp
from .errors import DimensionMismatch, InputError, UnsupportedDimension
from .intervals import Interval, intersect_unions

Point = tuple[Fraction, ...]

MAX_FACE_DIM = 4


def qp(*coords) -> Point:
    """Build a point from ints, strings like '1/3', or Fractions."""
    return tuple(Fraction(c) for c in coords)


def _check_dim(pts: Iterable[Point]) -> int:
    dim = None
    for p in pts:
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise DimensionMismatch("points of different ambient dimension")
    if dim is None:
        raise InputError("empty point collection")
    return dim


def sub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def interpolate(a: Point, b: Point, t: Fraction) -> Point:
    """Point a + t (b - a)."""
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def combination(weights: Sequence[Fraction], pts: Sequence[Point]) -> Point:
    """The point sum(w_i * p_i); the weights are taken as given."""
    dim = _check_dim(pts)
    return tuple(sum(w * p[k] for w, p in zip(weights, pts)) for k in range(dim))


def centroid(pts: Sequence[Point]) -> Point:
    return combination([Fraction(1, len(pts) or 1)] * len(pts), pts)  # empty: InputError


@dataclass(frozen=True)
class Segment:
    """A segment with distinct endpoints and per-endpoint openness flags."""

    a: Point
    b: Point
    a_closed: bool = True
    b_closed: bool = True

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise DimensionMismatch("segment endpoints of different dimension")
        if self.a == self.b:
            raise InputError("degenerate segment: endpoints coincide")

    @property
    def dim(self) -> int:
        return len(self.a)

    def at(self, t: Fraction) -> Point:
        return interpolate(self.a, self.b, t)

    def domain(self) -> Interval:
        return Interval(Fraction(0), Fraction(1), self.a_closed, self.b_closed)

    def piece(self, iv: Interval) -> Union[Point, "Segment"]:
        """The points with parameter in iv: one point or a sub-segment."""
        if iv.is_point:
            return self.at(iv.lo)
        return Segment(self.at(iv.lo), self.at(iv.hi), iv.lo_closed, iv.hi_closed)


@dataclass(frozen=True)
class MixedGenerators:
    """Generators for a convex hull: closed points, segments with openness
    flags, and vertex tuples whose relative interior is the generator."""

    points: tuple[Point, ...] = ()
    segments: tuple[Segment, ...] = ()
    open_faces: tuple[tuple[Point, ...], ...] = ()

    def __post_init__(self):
        dims = [len(p) for p in self.points]
        dims += [s.dim for s in self.segments]
        dims += [len(v) for f in self.open_faces for v in f]
        if dims and len(set(dims)) > 1:
            raise DimensionMismatch("generators of mixed ambient dimension")
        if not dims:
            raise InputError("no generators")

    @property
    def dim(self) -> int:
        if self.points:
            return len(self.points[0])
        if self.segments:
            return self.segments[0].dim
        return len(self.open_faces[0][0])


# ---------------------------------------------------------------------------
# membership


def hull_member(q: Point, pts: Sequence[Point]) -> bool:
    """Exact convex-hull membership: the strict-LP builder with one closed
    atom per point, which is plain LP feasibility."""
    if not pts:
        return False
    dim = _check_dim(pts)
    if len(q) != dim:
        raise DimensionMismatch("query point dimension mismatch")
    return _combo_lp([[(p, False) for p in pts]], q, "strict")


def integer_columns(points: Sequence[Point]) -> list[list[int]]:
    """Each point times the lcm of all denominators, with a 1 appended: an
    affine bijection, so coordinates of columns are barycentric ones."""
    scale = lcm(*(c.denominator for p in points for c in p))
    return [[c.numerator * (scale // c.denominator) for c in p] + [1] for p in points]


def caratheodory_witness(q: Point, pts: Sequence[Point]):
    """Hull membership by brute force over affinely independent subsets.

    Independent of the LP route: enumerates candidate simplices of at most
    dim+1 generators and reads barycentric coordinates off one elimination
    each.  Returns the first containing (subset, coords), or None.
    """
    if not pts:
        return None
    dim = _check_dim(pts)
    if len(q) != dim:
        raise DimensionMismatch("query point dimension mismatch")
    uniq = sorted(set(pts))
    *cols, qcol = integer_columns([*uniq, q])
    for size in range(1, dim + 2):
        for pairs in itertools.combinations(zip(uniq, cols), size):
            subset, basis = zip(*pairs)
            found = linalg.span_coordinates(basis, [qcol])
            coords = found and found[0]
            if coords and min(coords) >= 0:
                total = sum(coords)     # the common factor
                return subset, [Fraction(c, total) for c in coords]
    return None


def extreme_points(pts: Sequence[Point]) -> list[Point]:
    """Points x of the input with x outside the hull of the others."""
    if not pts:
        raise InputError("extreme points of empty set")
    uniq = sorted(set(pts))
    if len(uniq) == 1:
        return uniq
    out = []
    for i, p in enumerate(uniq):
        others = uniq[:i] + uniq[i + 1:]
        if not hull_member(p, others):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# strict membership

def _supports(gens: MixedGenerators):
    """Atom groups [[(point, strict_flag), ...], ...] of every candidate
    support, smallest supports first.

    For segments the coefficient of one endpoint must be positive exactly
    when the opposite endpoint is open (mass cannot sit entirely on an
    excluded end).  For a relative interior all coefficients are strict.
    Groups without a strict atom are in every support; the others are
    enumerated by subset.
    """
    always = []
    optional = []
    for p in gens.points:
        always.append([(p, False)])
    for s in gens.segments:
        group = [(s.a, not s.b_closed), (s.b, not s.a_closed)]
        if any(strict for _, strict in group):
            optional.append(group)
        else:
            always.append(group)
    for verts in gens.open_faces:
        optional.append([(v, True) for v in verts])
    for r in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, r):
            if always or chosen:
                yield always + list(chosen)


def _combo_lp(groups, target: Union[Point, Segment], mode: str):
    """The strict LP over unit-mass combinations sum(gamma_a * a) of the atoms.

    ``target`` is a fixed point q, or a segment whose point seg.at(tau) is
    matched with tau in [0, 1] free.  Mode 'strict' maximizes one slack
    shared by every strict-flagged coefficient and returns whether the
    target is a combination with all of them positive (plain feasibility
    when no atom is strict).  Mode 'min' / 'max' optimizes tau over the
    closed relaxation and returns the optimum, or None when infeasible.
    """
    atoms = [a for g in groups for a in g]
    nγ = len(atoms)
    seg = target if isinstance(target, Segment) else None
    strict_idx = [j for j, (_, s) in enumerate(atoms) if s] if mode == "strict" else []
    # columns: gammas, [tau, tau_cap_slack], [s, surpluses]
    tau_col = nγ
    s_col = nγ + (2 if seg else 0)
    ncols = s_col + (1 + len(strict_idx) if strict_idx else 0)
    origin = seg.a if seg else target
    rows = []
    rhs = []
    for k in range(len(origin)):
        row = [p[k] for p, _ in atoms] + [0] * (ncols - nγ)
        if seg:
            row[tau_col] = seg.a[k] - seg.b[k]
        rows.append(row)
        rhs.append(origin[k])
    rows.append([1] * nγ + [0] * (ncols - nγ))
    rhs.append(1)
    if seg:
        row = [0] * ncols
        row[tau_col] = row[tau_col + 1] = 1
        rows.append(row)
        rhs.append(1)
    for t, j in enumerate(strict_idx):
        row = [0] * ncols
        row[j] = 1
        row[s_col] = -1
        row[s_col + 1 + t] = -1
        rows.append(row)
        rhs.append(0)
    c = [0] * ncols
    if strict_idx:
        c[s_col] = 1
    elif mode != "strict":
        c[tau_col] = 1 if mode == "max" else -1
    res = lp.maximize(rows, rhs, c)
    if mode == "strict":
        return res.status == lp.OPTIMAL and (not strict_idx or res.objective > 0)
    return res.x[tau_col] if res.status == lp.OPTIMAL else None


def strict_hull_member(q: Point, gens: MixedGenerators) -> bool:
    """Membership in the hull of mixed open/closed generators.

    q must be a convex combination assigning mass only to admissible points:
    positive mass on an open segment stays off its excluded endpoints, and
    positive mass on a relative-interior generator uses interior points only.
    Decided by support enumeration over the open generators, one strict LP
    per support set.
    """
    if len(q) != gens.dim:
        raise DimensionMismatch("query point dimension mismatch")
    return any(_combo_lp(groups, q, "strict") for groups in _supports(gens))


# ---------------------------------------------------------------------------
# polytopes and faces


class VPolytope:
    """Polytope given by vertices; the stored list is the extreme-point set."""

    def __init__(self, points: Sequence[Point], *, assume_extreme: bool = False):
        uniq: list[Point] = []
        seen = set()
        for p in points:
            pt = tuple(Fraction(c) for c in p)
            if pt not in seen:
                seen.add(pt)
                uniq.append(pt)
        if not uniq:
            raise InputError("polytope needs at least one point")
        _check_dim(uniq)
        if not assume_extreme and len(uniq) > 1:
            uniq = extreme_points(uniq)
        self.vertices: tuple[Point, ...] = tuple(uniq)
        self.dim_ambient = len(uniq[0])
        # the pivots of the edges from the first vertex chart its affine hull
        edges = [sub(p, uniq[0]) for p in uniq[1:]]
        self._chart = linalg.rref(edges)[1] if edges else []
        self.dim_affine = len(self._chart)
        self._faces: Optional[list["Face"]] = None

    def __repr__(self):
        return f"VPolytope({len(self.vertices)} vertices, dim {self.dim_affine}/{self.dim_ambient})"

    def facets(self) -> list[frozenset[int]]:
        """Vertex index sets of the (dim_affine - 1)-dimensional faces.

        Each vertex gets coordinates in the RREF basis of the affine hull: a
        basis row is 1 at its own pivot column and 0 at the others, so a
        vector of the span has its coordinates at the pivot columns.  A
        candidate normal spans the null space of d - 1 differences, which is
        a line exactly when they have d - 1 pivots.
        """
        d = self.dim_affine
        if d == 0:
            return []
        v0 = self.vertices[0]
        coords = [tuple(p[k] - v0[k] for k in self._chart) for p in self.vertices]
        m = len(coords)
        found: set[frozenset[int]] = set()
        for subset in itertools.combinations(range(m), d):
            base = coords[subset[0]]
            diffs = [sub(coords[i], base) for i in subset[1:]]
            red, pivots = linalg.rref(diffs) if diffs else ([], [])
            if len(pivots) != d - 1:
                continue
            free = next(c for c in range(d) if c not in pivots)
            w = [Fraction(int(c == free)) for c in range(d)]
            for row, c in zip(red, pivots):
                w[c] = -row[free]
            offs = sum(wi * xi for wi, xi in zip(w, base))
            vals = [sum(wi * xi for wi, xi in zip(w, c)) - offs for c in coords]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                found.add(frozenset(i for i, v in enumerate(vals) if v == 0))
        return sorted(found, key=lambda s: tuple(sorted(s)))

    def faces(self) -> list["Face"]:
        """All nonempty faces (vertices, edges, ..., and the polytope itself).

        Proper faces are generated as intersections of facets; every facet is
        discovered by the supporting-hyperplane search over affinely
        independent vertex subsets.
        """
        if self._faces is not None:
            return self._faces
        if self.dim_affine > MAX_FACE_DIM:
            raise UnsupportedDimension(
                f"face enumeration supported up to affine dimension {MAX_FACE_DIM}")
        closed: set[frozenset[int]] = {frozenset(range(len(self.vertices)))}
        for f in self.facets():     # after f: every nonempty meet of facets so far
            closed |= {c & f for c in closed if c & f}
        ordered = sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))
        self._faces = [Face(self, s) for s in ordered]
        return self._faces


@dataclass(frozen=True)
class Face:
    polytope: VPolytope
    indices: frozenset[int]

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(self.polytope.vertices[i] for i in sorted(self.indices))

    @property
    def is_proper(self) -> bool:
        return len(self.indices) < len(self.polytope.vertices)


# ---------------------------------------------------------------------------
# segment ∩ hull


def segment_hull_param_intervals(seg: Segment, gens: MixedGenerators) -> tuple[Interval, ...]:
    """Parameters t with seg.at(t) in the strict hull of the generators.

    The result is a canonical union of intervals, already restricted to the
    segment's own domain (open endpoints of seg are excluded).
    """
    if seg.dim != gens.dim:
        raise DimensionMismatch("segment and generators of different dimension")
    pieces: list[Interval] = []
    for groups in _supports(gens):
        has_strict = any(s for g in groups for _, s in g)
        if has_strict and not _combo_lp(groups, seg, "strict"):
            continue
        lo = _combo_lp(groups, seg, "min")
        if lo is None:
            continue
        hi = _combo_lp(groups, seg, "max")
        assert hi is not None
        if has_strict:
            lo_in = _combo_lp(groups, seg.at(lo), "strict")
            hi_in = lo_in if hi == lo else _combo_lp(groups, seg.at(hi), "strict")
        else:
            lo_in = hi_in = True
        if lo == hi:
            if lo_in:
                pieces.append(Interval.point(lo))
        else:
            pieces.append(Interval(lo, hi, lo_in, hi_in))
    return intersect_unions(pieces, [seg.domain()])


def standard_simplex(n: int) -> VPolytope:
    """Vertices: the origin and the n unit points of Q^n."""
    if n < 1:
        raise InputError("simplex dimension must be at least 1")
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        pts.append(tuple(Fraction(1 if k == i else 0) for k in range(n)))
    return VPolytope(pts, assume_extreme=True)
