"""Relatively convex sets over ground sets that are finite unions of segments.

A ground set is a list of carrier segments (possibly sharing points); a
closed set is stored per carrier as a canonical list of disjoint parameter
intervals with openness flags.  Canonical form is extensional: a point lying
on several carriers appears in every carrier's interval list whose domain
admits it, so structural equality of interval lists is point-set equality.
A hand-built set reaches that form through the hull traces of its pieces on
every carrier.  Closures, meets, joins, the whole ground, face traces and
random draws are extensional by construction and skip the traces, which cost
LPs, so closure, join and meet solve no LP beyond the closure's own.

Closure is computed carrier by carrier with the exact strict-LP machinery of
:mod:`relconvex.geometry`: the closure of Y is the set of carrier parameters
whose point is a convex combination of Y's pieces.  Since canonical sets
compare as point sets, the face restriction hull(Y) ∩ F = hull(Y ∩ F) is
checked as that identity of closures and meets, with F cut to its trace on
the ground.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

from .analysis import map_defects
from .closure import FiniteGround
from .errors import DimensionMismatch, InputError
from .geometry import (
    MixedGenerators,
    Point,
    Segment,
    VPolytope,
    combination,
    hull_member,
    segment_hull_param_intervals,
)
from .intervals import Interval, intersect_unions, union_intervals


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

    def __repr__(self):
        return f"SegmentUnionGround({self.k} segments in Q^{self.dim})"


def _generators(pieces: Sequence[Union[Point, Segment]]) -> MixedGenerators:
    return MixedGenerators(points=tuple(p for p in pieces if not isinstance(p, Segment)),
                           segments=tuple(p for p in pieces if isinstance(p, Segment)))


class SubsegmentSet:
    """A point subset of a segment-union ground, canonical per carrier.

    Intervals are clipped to their carrier's domain; then each carrier holds
    the union of every piece's trace on it (a piece is its own hull).
    ``_canonical=True`` skips the trace, which solves LPs, for sets that are
    extensional by construction: closures, meets, unions of canonical sets,
    the whole ground, face traces and random draws that only feed a closure.
    """

    def __init__(self, ground: SegmentUnionGround,
                 pieces: Sequence[Sequence[Interval]], *, _canonical=False):
        self.ground = ground
        if len(pieces) != ground.k:
            raise InputError("one interval list per carrier required")
        cleaned = [intersect_unions(ivs, [carrier.domain()])
                   for carrier, ivs in zip(ground.segments, pieces)]
        if not _canonical:
            piece_gens = [_generators([carrier.piece(iv)])
                          for carrier, ivs in zip(ground.segments, cleaned) for iv in ivs]
            cleaned = [union_intervals(t for gens in piece_gens
                                       for t in segment_hull_param_intervals(carrier, gens))
                       for carrier in ground.segments]
        self.pieces: tuple[tuple[Interval, ...], ...] = tuple(cleaned)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, ground: SegmentUnionGround) -> "SubsegmentSet":
        return cls(ground, [[] for _ in range(ground.k)], _canonical=True)

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

    def as_generators(self) -> Optional[MixedGenerators]:
        pieces = [carrier.piece(iv)
                  for carrier, ivs in zip(self.ground.segments, self.pieces) for iv in ivs]
        return _generators(pieces) if pieces else None


# ---------------------------------------------------------------------------
# closure and lattice operations


def seg_closure(y: SubsegmentSet) -> SubsegmentSet:
    """hull(Y) ∩ X, carrier by carrier, with exact openness."""
    gens = y.as_generators()
    if gens is None:
        return SubsegmentSet.empty(y.ground)
    pieces = [segment_hull_param_intervals(carrier, gens) for carrier in y.ground.segments]
    return SubsegmentSet(y.ground, pieces, _canonical=True)


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
    return seg_closure(SubsegmentSet(a.ground, pieces, _canonical=True))


# ---------------------------------------------------------------------------
# the two sufficient conditions


def check_condition_disjoint(ground: SegmentUnionGround):
    """Topological closures of distinct carriers must be pairwise disjoint:
    the first pair i < j where closed carrier i has a nonempty trace on
    closed carrier j fails."""
    closed = [Segment(s.a, s.b) for s in ground.segments]
    for i, j in itertools.combinations(range(ground.k), 2):
        if segment_hull_param_intervals(closed[j], MixedGenerators(segments=(closed[i],))):
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
                ivs.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
        pieces.append(ivs)
    return seg_closure(SubsegmentSet(ground, pieces, _canonical=True))


def sdv_spot_check(ground: SegmentUnionGround,
                   triples: Optional[Sequence[tuple]] = None,
                   count: int = 50, seed: int = 0):
    """Join-semidistributivity on explicit or random closed triples.

    Returns (True, None) when no sampled triple violates the implication,
    else (False, witness) with the offending triple and the three joins.
    """
    if count < 0:
        raise InputError("triple count must be non-negative")
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
# face restriction


# sample points of a face for finite Y: its vertices and every combination
# of them with weights k/d, d = 2 .. _SAMPLE_DENOMINATOR
_SAMPLE_DENOMINATOR = 3


def face_restriction_check(y, poly: VPolytope, face) -> bool:
    """hull(Y) ∩ F = hull(Y ∩ F), checked exactly per sample point (finite Y)
    or as the identity itself on the canonical sets of the ground (subsegment
    Y), with F cut to its trace on the ground."""
    fverts = face.vertices if hasattr(face, "vertices") else tuple(face)
    if isinstance(y, SubsegmentSet):
        fgens = MixedGenerators(points=tuple(fverts))
        on_face = SubsegmentSet(y.ground, [segment_hull_param_intervals(c, fgens)
                                           for c in y.ground.segments], _canonical=True)
        return seg_meet(seg_closure(y), on_face) == seg_closure(seg_meet(y, on_face))
    pts = [tuple(Fraction(c) for c in p) for p in y]
    for p in pts:
        if not hull_member(p, poly.vertices):
            raise InputError("Y must be contained in the polytope")
    inside = [p for p in pts if hull_member(p, fverts)]
    for z in _face_samples(fverts) + pts:
        if not hull_member(z, fverts):
            continue
        lhs = hull_member(z, pts)
        rhs = bool(inside) and hull_member(z, inside)
        if lhs != rhs:
            return False
    return True


def _face_samples(fverts) -> list[Point]:
    out = set(fverts)
    for d in range(2, _SAMPLE_DENOMINATOR + 1):
        for weights in itertools.product(range(d + 1), repeat=len(fverts)):
            if sum(weights) == d:
                out.add(combination([Fraction(w, d) for w in weights], fverts))
    return sorted(out)


def face_hom_check(ground_points: Sequence[Point], poly: VPolytope, face) -> dict:
    """The trace map A -> A ∩ F from the closed-set lattice of X into the
    closed sets of X ∩ F: closed traces, surjective, join- and
    meet-preserving, checked by ``map_defects`` on the closure of X ∩ F."""
    fverts = face.vertices if hasattr(face, "vertices") else tuple(face)
    pts = [tuple(Fraction(c) for c in p) for p in ground_points]
    for p in pts:
        if not hull_member(p, poly.vertices):
            raise InputError("ground must be contained in the polytope")
    lat = FiniteGround(pts).lattice()
    on_face = [i for i, p in enumerate(pts) if hull_member(p, fverts)]
    if not on_face:
        return {"trace_closed": True, "joins": True, "meets": True, "surjective": True,
                "face_ground_empty": True}
    gf = FiniteGround([pts[i] for i in on_face])
    images = [sum(1 << new for new, orig in enumerate(on_face) if mask >> orig & 1)
              for mask in lat.labels]
    defects = map_defects(lat, gf, images)
    return {"trace_closed": defects["image-not-closed"] is None,
            "joins": defects["join-not-preserved"] is None,
            "meets": defects["meet-not-preserved"] is None,
            "surjective": len(set(images)) == len(gf.enumerate_closed_masks())}
