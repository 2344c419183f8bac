"""Relatively convex sets over ground sets that are finite unions of segments.

A ground set is a list of carrier segments (possibly sharing points); a
closed set is stored per carrier as a canonical list of disjoint parameter
intervals with openness flags.  Canonical form is extensional: a point lying
on several carriers appears in every carrier's interval list whose domain
admits it, so structural equality of interval lists is point-set equality.

Closure is computed carrier by carrier with the exact strict-LP machinery of
:mod:`relconvex.geometry`: the closure of Y is the set of carrier parameters
whose point is a convex combination of Y's pieces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .analysis import LatticeMap, map_defects
from .closure import FiniteGround
from .errors import DimensionMismatch, InputError
from .geometry import (
    MixedGenerators,
    Point,
    Segment,
    VPolytope,
    extreme_points,
    hull_member,
    segment_hull_param_intervals,
    sub,
)
from .intervals import Interval, intersect_unions, union_intervals


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
    sol = linalg.solve(rows, rhs)
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
        s = linalg.solve(cols, [x[k] - si.a[k] for k in range(n)])
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


class SegmentUnionGround:
    """A finite union of carrier segments in common ambient dimension."""

    def __init__(self, segments: Sequence[Segment]):
        segs = tuple(segments)
        if not segs:
            raise InputError("ground needs at least one segment")
        dim = segs[0].dim
        for s in segs:
            if s.dim != dim:
                raise DimensionMismatch("carrier segments of different dimension")
        if len(set(segs)) != len(segs):
            raise InputError("carrier segments must be pairwise non-identical")
        self.segments = segs
        self.dim = dim
        self.k = len(segs)
        self._overlaps: Optional[dict] = None

    def overlaps(self) -> dict[tuple[int, int], _Overlap]:
        if self._overlaps is None:
            out = {}
            for i, j in itertools.permutations(range(self.k), 2):
                ov = _carrier_overlap(self.segments[i], self.segments[j])
                if ov is not None:
                    out[(i, j)] = ov
            self._overlaps = out
        return self._overlaps

    def __repr__(self):
        return f"SegmentUnionGround({self.k} segments in Q^{self.dim})"


class SubsegmentSet:
    """A point subset of a segment-union ground, canonical per carrier."""

    def __init__(self, ground: SegmentUnionGround,
                 pieces: Sequence[Sequence[Interval]], *, _canonical=False):
        self.ground = ground
        if len(pieces) != ground.k:
            raise InputError("one interval list per carrier required")
        cleaned = []
        for idx, ivs in enumerate(pieces):
            dom = ground.segments[idx].domain()
            clipped = []
            for iv in ivs:
                c = iv.intersect(dom)
                if c is not None:
                    clipped.append(c)
            cleaned.append(union_intervals(clipped))
        self.pieces: tuple[tuple[Interval, ...], ...] = tuple(cleaned)
        if not _canonical:
            self._propagate_shared_points()

    def _propagate_shared_points(self):
        pieces = [list(p) for p in self.pieces]
        overlaps = self.ground.overlaps()
        for _ in range(2 * self.ground.k * self.ground.k + 2):
            changed = False
            for (i, j), ov in overlaps.items():
                dom_j = self.ground.segments[j].domain()
                current_i = pieces[i]
                if ov.kind == "point":
                    t, u = ov.t_self, ov.t_other
                    if any(iv.contains(t) for iv in current_i) and dom_j.contains(u):
                        if not any(iv.contains(u) for iv in pieces[j]):
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
        self.pieces = tuple(tuple(p) for p in pieces)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, ground: SegmentUnionGround) -> "SubsegmentSet":
        return cls(ground, [[] for _ in range(ground.k)], _canonical=True)

    @classmethod
    def whole(cls, ground: SegmentUnionGround) -> "SubsegmentSet":
        return cls(ground, [[ground.segments[i].domain()] for i in range(ground.k)])

    # -- structure -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return all(not p for p in self.pieces)

    def __eq__(self, other):
        return (isinstance(other, SubsegmentSet)
                and self.ground.segments == other.ground.segments
                and self.pieces == other.pieces)

    def __hash__(self):
        return hash((self.ground.segments, self.pieces))

    def __repr__(self):
        parts = []
        for i, ivs in enumerate(self.pieces):
            for iv in ivs:
                lo = "[" if iv.lo_closed else "("
                hi = "]" if iv.hi_closed else ")"
                parts.append(f"{i}:{lo}{iv.lo},{iv.hi}{hi}")
        return "SubsegmentSet(" + " ".join(parts) + ")"

    def contains(self, carrier: int, t: Fraction) -> bool:
        return any(iv.contains(t) for iv in self.pieces[carrier])

    def as_generators(self) -> Optional[MixedGenerators]:
        pts = []
        segs = []
        for i, ivs in enumerate(self.pieces):
            carrier = self.ground.segments[i]
            for iv in ivs:
                if iv.is_point:
                    pts.append(carrier.at(iv.lo))
                else:
                    segs.append(Segment(carrier.at(iv.lo), carrier.at(iv.hi),
                                        iv.lo_closed, iv.hi_closed))
        if not pts and not segs:
            return None
        return MixedGenerators(points=tuple(pts), segments=tuple(segs))


# ---------------------------------------------------------------------------
# closure and lattice operations


def seg_closure(y: SubsegmentSet) -> SubsegmentSet:
    """hull(Y) ∩ X, carrier by carrier, with exact openness."""
    gens = y.as_generators()
    if gens is None:
        return SubsegmentSet.empty(y.ground)
    pieces = []
    for carrier in y.ground.segments:
        pieces.append(list(segment_hull_param_intervals(carrier, gens)))
    return SubsegmentSet(y.ground, pieces)


def seg_meet(a: SubsegmentSet, b: SubsegmentSet) -> SubsegmentSet:
    if a.ground is not b.ground and a.ground.segments != b.ground.segments:
        raise InputError("operands live over different grounds")
    pieces = [list(intersect_unions(pa, pb)) for pa, pb in zip(a.pieces, b.pieces)]
    return SubsegmentSet(a.ground, pieces, _canonical=True)


def seg_join(a: SubsegmentSet, b: SubsegmentSet) -> SubsegmentSet:
    if a.ground is not b.ground and a.ground.segments != b.ground.segments:
        raise InputError("operands live over different grounds")
    pieces = [list(union_intervals(list(pa) + list(pb)))
              for pa, pb in zip(a.pieces, b.pieces)]
    return seg_closure(SubsegmentSet(a.ground, pieces))


# ---------------------------------------------------------------------------
# the two sufficient conditions


def check_condition_disjoint(ground: SegmentUnionGround):
    """Topological closures of distinct carriers must be pairwise disjoint."""
    for i, j in itertools.combinations(range(ground.k), 2):
        ov = _carrier_overlap(ground.segments[i], ground.segments[j])
        if ov is not None:
            return False, (i, j)
    return True, None


def check_condition_faces(ground: SegmentUnionGround, poly: VPolytope):
    """Every carrier must lie inside a proper face of the polytope."""
    proper = [f for f in poly.faces() if f.is_proper]
    for idx, seg in enumerate(ground.segments):
        ok = any(hull_member(seg.a, f.vertices) and hull_member(seg.b, f.vertices)
                 for f in proper)
        if not ok:
            return False, idx
    return True, None


# ---------------------------------------------------------------------------
# join-semidistributivity spot checks


def random_closed_set(ground: SegmentUnionGround, rng: random.Random) -> SubsegmentSet:
    pieces = []
    for _ in range(ground.k):
        ivs = []
        if rng.random() < 0.7:
            a = Fraction(rng.randint(0, 8), 8)
            b = Fraction(rng.randint(0, 8), 8)
            if a > b:
                a, b = b, a
            if a == b:
                ivs.append(Interval.point(a))
            else:
                ivs.append(Interval(a, b, rng.random() < 0.5 or a == b,
                                    rng.random() < 0.5 or a == b))
        pieces.append(ivs)
    return seg_closure(SubsegmentSet(ground, pieces))


def sdv_spot_check(ground: SegmentUnionGround,
                   triples: Optional[Sequence[tuple]] = None,
                   count: int = 50, seed: int = 0):
    """Join-semidistributivity on explicit or random closed triples.

    Returns (True, None) when no sampled triple violates the implication,
    else (False, witness) with the offending triple and the three joins.
    """
    if triples is None:
        rng = random.Random(seed)
        triples = [(random_closed_set(ground, rng), random_closed_set(ground, rng),
                    random_closed_set(ground, rng)) for _ in range(count)]
    for a, b, c in triples:
        ab = seg_join(a, b)
        ac = seg_join(a, c)
        if ab == ac:
            amc = seg_join(a, seg_meet(b, c))
            if amc != ab:
                return False, {"a": a, "b": b, "c": c, "a_join_b": ab,
                               "a_join_meet": amc}
    return True, None


# ---------------------------------------------------------------------------
# extreme points and face restriction


def extreme_points_of_closure(ground: SegmentUnionGround) -> list[Point]:
    """Extreme points of the closed hull: always endpoint closures."""
    endpoints = []
    for s in ground.segments:
        endpoints.extend([s.a, s.b])
    return extreme_points(endpoints)


def _face_param_intervals(carrier: Segment, face_vertices) -> tuple[Interval, ...]:
    gens = MixedGenerators(points=tuple(face_vertices))
    return segment_hull_param_intervals(carrier, gens)


def face_restriction_check(y, poly: VPolytope, face, *,
                           sample_denominator: int = 3) -> bool:
    """hull(Y) ∩ F = hull(Y ∩ F), checked exactly per sample point (finite Y)
    or per carrier parameter interval (subsegment Y)."""
    fverts = face.vertices if hasattr(face, "vertices") else tuple(face)
    if isinstance(y, SubsegmentSet):
        ygens = y.as_generators()
        face_trace = SubsegmentSet(
            y.ground, [list(_face_param_intervals(c, fverts))
                       for c in y.ground.segments])
        yf_gens = seg_meet(y, face_trace).as_generators()
        for idx, carrier in enumerate(y.ground.segments):
            on_face = _face_param_intervals(carrier, fverts)
            if ygens is None:
                lhs = ()
            else:
                lhs = intersect_unions(segment_hull_param_intervals(carrier, ygens),
                                       on_face)
            rhs = (() if yf_gens is None
                   else segment_hull_param_intervals(carrier, yf_gens))
            if tuple(lhs) != tuple(rhs):
                return False
        return True
    pts = [tuple(Fraction(c) for c in p) for p in y]
    for p in pts:
        if not hull_member(p, poly.vertices):
            raise InputError("Y must be contained in the polytope")
    inside = [p for p in pts if hull_member(p, fverts)]
    for z in _face_samples(fverts, sample_denominator) + pts:
        if not hull_member(z, fverts):
            continue
        lhs = hull_member(z, pts)
        rhs = bool(inside) and hull_member(z, inside)
        if lhs != rhs:
            return False
    return True


def _face_samples(fverts, max_denominator: int) -> list[Point]:
    m = len(fverts)
    dim = len(fverts[0])
    out = set(fverts)
    for d in range(2, max_denominator + 1):
        for weights in itertools.product(range(d + 1), repeat=m):
            if sum(weights) != d:
                continue
            out.add(tuple(sum(Fraction(w, d) * v[k] for w, v in zip(weights, fverts))
                          for k in range(dim)))
    return sorted(out)


def face_hom_check(ground_points: Sequence[Point], poly: VPolytope, face,
                   max_ground: int = 12) -> dict:
    """The trace map A -> A ∩ F between the closed-set lattices of X and
    X ∩ F: surjective, join- and meet-preserving, checked on all pairs."""
    fverts = face.vertices if hasattr(face, "vertices") else tuple(face)
    pts = [tuple(Fraction(c) for c in p) for p in ground_points]
    for p in pts:
        if not hull_member(p, poly.vertices):
            raise InputError("ground must be contained in the polytope")
    g = FiniteGround(pts)
    lat = g.lattice(max_ground)
    on_face = [i for i, p in enumerate(pts) if hull_member(p, fverts)]
    report = {"trace_closed": True, "joins": True, "meets": True, "surjective": True}
    if not on_face:
        report["face_ground_empty"] = True
        return report
    gf = FiniteGround([pts[i] for i in on_face])
    latf = gf.lattice(max_ground)
    reindex = {orig: new for new, orig in enumerate(on_face)}

    def trace(mask: int) -> int:
        out = 0
        for orig, new in reindex.items():
            if mask >> orig & 1:
                out |= 1 << new
        return out

    f_index = {m: i for i, m in enumerate(latf.labels)}
    images = []
    for mask in lat.labels:
        t = trace(mask)
        if t not in f_index:
            report["trace_closed"] = False
            return report
        images.append(f_index[t])
    defects = map_defects(LatticeMap(lat, latf, images))
    report["joins"] = defects["join-not-preserved"] is None
    report["meets"] = defects["meet-not-preserved"] is None
    report["surjective"] = len(set(images)) == latf.n
    return report
