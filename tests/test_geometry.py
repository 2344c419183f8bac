import itertools
import random
from fractions import Fraction as F

import pytest

from relconvex import geometry as g
from relconvex.errors import DimensionMismatch, InputError
from relconvex.geometry import (
    MixedGenerators,
    Segment,
    VPolytope,
    caratheodory_witness,
    extreme_points,
    hull_member,
    qp,
    segment_hull_param_intervals,
    standard_simplex,
    strict_hull_member,
)
from relconvex.intervals import Interval

from oracles import affine_span_dim, caratheodory_reference, pieces_contain, supports_face

TRIANGLE = [qp(0, 0), qp(1, 0), qp(0, 1)]

# the five-point configuration used across the segment-union tests:
# a triangle a,b,c with two interior points p,m joined to the apex
PM_A = qp(0, 2)
PM_B = qp(-1, 0)
PM_C = qp(1, 0)
PM_P = qp("-1/4", "1/2")
PM_M = qp("1/4", "1/2")


def test_hull_member_point_in_itself():
    assert hull_member(qp(0, 0), [qp(0, 0)])


def test_hull_member_inside_triangle():
    assert hull_member(qp("1/2", "1/4"), TRIANGLE)


def test_hull_member_outside_triangle():
    assert not hull_member(qp(1, 1), TRIANGLE)


def test_hull_member_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hull_member(qp(0, 0, 0), TRIANGLE)


def test_hull_member_empty_generators():
    assert not hull_member(qp(0, 0), [])


def test_hull_member_matches_caratheodory_oracle():
    rng = random.Random(17)
    for _ in range(60):
        dim = rng.choice([1, 2, 2, 3])
        pts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(rng.randint(1, 6))]
        q = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
        assert hull_member(q, pts) == (caratheodory_witness(q, pts) is not None)


def test_extreme_points_non_collinear():
    assert set(extreme_points(TRIANGLE)) == set(TRIANGLE)


def test_extreme_points_collinear():
    pts = [qp(0), qp(1), qp(2), qp(3)]
    assert set(extreme_points(pts)) == {qp(0), qp(3)}


def test_extreme_points_square_plus_center():
    pts = [qp(0, 0), qp(1, 0), qp(0, 1), qp(1, 1), qp("1/2", "1/2")]
    assert set(extreme_points(pts)) == {qp(0, 0), qp(1, 0), qp(0, 1), qp(1, 1)}


def test_extreme_points_hull_preserved():
    rng = random.Random(5)
    for _ in range(20):
        pts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
               for _ in range(rng.randint(1, 7))]
        ext = extreme_points(pts)
        for p in pts:
            assert hull_member(p, ext)


def test_affine_span_dim():
    for pts, d in [([qp(1, 2)], 0), ([qp(0, 0), qp(1, 1)], 1), (TRIANGLE, 2),
                   ([qp(0, 0, 0), qp(1, 1, 1), qp(2, 2, 2)], 1)]:
        assert VPolytope(pts).dim_affine == affine_span_dim(pts) == d


def test_caratheodory_witness_matches_two_step_oracle():
    # points drawn with repeats from a random flat of each dimension k <= m,
    # so subsets are often collinear or coplanar; q in the flat or off it
    rng = random.Random(29)
    members = 0
    for _ in range(400):
        m = rng.randint(1, 4)
        k = rng.randint(0, m)
        flat = flat_points(rng, k, m)
        pts = [rng.choice(flat) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            q = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m))
        else:
            weights = [F(rng.randint(-1, 4)) for _ in flat]
            total = sum(weights) or F(1)
            q = g.combination([w / total for w in weights], flat)
        got = caratheodory_witness(q, pts)
        assert got == caratheodory_reference(q, pts), (q, pts)
        members += got is not None
    assert 100 < members < 300


def test_segment_rejects_degenerate():
    with pytest.raises(InputError):
        Segment(qp(1, 1), qp(1, 1))


# --- strict membership -----------------------------------------------------

def test_strict_open_segment_excludes_endpoint():
    gens = MixedGenerators(segments=(Segment(PM_P, PM_A, False, False),))
    assert not strict_hull_member(PM_A, gens)


def test_strict_open_segment_midpoint():
    seg = Segment(PM_P, PM_A, False, False)
    gens = MixedGenerators(segments=(seg,))
    mid = seg.at(F(1, 2))
    assert strict_hull_member(mid, gens)


def test_strict_pm_configuration():
    # q on [m,a) is in the hull of [b,c] and the open segment (p,a)
    gens = MixedGenerators(segments=(
        Segment(PM_B, PM_C, True, True),
        Segment(PM_P, PM_A, False, False),
    ))
    assert strict_hull_member(PM_M, gens)
    assert strict_hull_member(g.interpolate(PM_M, PM_A, F(1, 2)), gens)
    assert not strict_hull_member(PM_A, gens)
    # p itself is reachable: the cevian from a through p hits [b,c]
    assert strict_hull_member(PM_P, gens)


def test_strict_implies_closed_relaxation():
    rng = random.Random(23)
    for _ in range(25):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        b = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        if a == b:
            continue
        seg = Segment(a, b, False, False)
        extra = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        gens = MixedGenerators(points=(extra,), segments=(seg,))
        q = tuple(F(rng.randint(-3, 3), 2) for _ in range(2))
        if strict_hull_member(q, gens):
            assert hull_member(q, [a, b, extra])


def test_strict_open_face_center_only():
    gens = MixedGenerators(open_faces=(tuple(TRIANGLE),))
    assert strict_hull_member(qp("1/3", "1/3"), gens)
    assert not strict_hull_member(qp(0, 0), gens)          # vertex excluded
    assert not strict_hull_member(qp("1/2", 0), gens)      # edge point excluded


def test_one_vertex_open_face_is_the_closed_point():
    """The relative interior of a point is the point: as an open face it is
    one optional strict atom, whose supports give the closed point's hull."""
    rng = random.Random(53)

    def pt(scale=1):
        return tuple(F(rng.randint(-3 * scale, 3 * scale), scale) for _ in range(2))

    answers = set()
    for k in range(40):
        a, b = pt(), pt()
        rest = {}
        if a != b and k % 4:
            rest["segments"] = (Segment(a, b, rng.random() < 0.5, k % 2 == 0),)
        if k % 3 == 0:
            rest["open_faces"] = ((pt(), pt(), pt()),)
        p = pt()
        as_face = MixedGenerators(open_faces=((p,),) + rest.get("open_faces", ()),
                                  segments=rest.get("segments", ()))
        as_point = MixedGenerators(points=(p,), **rest)
        for q in (p, a, b, pt(2)):
            answers.add(strict_hull_member(q, as_face))
            assert strict_hull_member(q, as_face) == strict_hull_member(q, as_point)
        s, t = pt(), pt()
        if s != t:
            seg = Segment(s, t)
            assert (segment_hull_param_intervals(seg, as_face)
                    == segment_hull_param_intervals(seg, as_point))
    assert answers == {True, False}


# --- faces -------------------------------------------------------------------

def test_faces_segment():
    p = VPolytope([qp(0), qp(1)])
    assert len(p.faces()) == 3


def test_faces_triangle():
    p = VPolytope(TRIANGLE)
    assert len(p.faces()) == 7


def test_faces_tetrahedron():
    p = standard_simplex(3)
    assert len(p.faces()) == 15


def test_faces_square():
    p = VPolytope([qp(0, 0), qp(1, 0), qp(1, 1), qp(0, 1)])
    # 4 vertices + 4 edges + itself; diagonals are not faces
    assert len(p.faces()) == 9
    sets = {f.indices for f in p.faces()}
    verts = p.vertices
    i00 = verts.index(qp(0, 0))
    i11 = verts.index(qp(1, 1))
    assert frozenset({i00, i11}) not in sets


def assert_faces_match_oracle(poly: VPolytope):
    assert poly.dim_affine == affine_span_dim(poly.vertices)
    face_sets = {f.indices for f in poly.faces()}
    n = len(poly.vertices)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            s = frozenset(subset)
            assert (s in face_sets) == supports_face(poly, s), (poly, s)


def test_faces_match_supporting_functional_oracle():
    for poly in [VPolytope(TRIANGLE),
                 VPolytope([qp(0, 0), qp(2, 0), qp(2, 2), qp(0, 2)]),
                 standard_simplex(3)]:
        assert_faces_match_oracle(poly)
    rng = random.Random(7)
    for m in range(1, 5):
        for _ in range(3):
            poly = VPolytope(flat_points(rng, m, m))
            assert poly.dim_affine == m
            assert_faces_match_oracle(poly)


def flat_points(rng: random.Random, k: int, m: int) -> list:
    """k+1 to k+3 integer points of Q^k under a random affine map into Q^m
    whose image spans a k-flat."""
    while True:
        pts = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(k + 1, k + 3))]
        lin = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(m)]
        off = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
        image = [tuple(o + sum(a * x for a, x in zip(row, p)) for row, o in zip(lin, off))
                 for p in pts]
        if len(set(image)) == len(image) and affine_span_dim(image) == k:
            return image


def test_faces_of_lower_dimensional_polytopes_match_oracle():
    # the affine chart matters only when the hull is not full-dimensional
    fixed = [
        (VPolytope([qp(1, 2, 3), qp(4, 0, -1), qp("5/2", 1, 1)]), 3),       # segment in Q^3
        (VPolytope([qp(1, 0, 0), qp(0, 1, 0), qp(0, 0, 1)]), 7),            # tilted triangle
        (VPolytope([qp(0, 0, 0, 0), qp(1, 1, 0, 0), qp(1, 1, 1, -1),
                    qp(0, 0, 1, -1)]), 9),                                  # square in Q^4
        (VPolytope([qp(1, 0, 0, 0), qp(0, 1, 0, 0), qp(0, 0, 1, 0),
                    qp(0, 0, 0, 1)]), 15),                                  # tetrahedron in Q^4
    ]
    for poly, count in fixed:
        assert poly.dim_affine < poly.dim_ambient
        assert len(poly.faces()) == count
        assert_faces_match_oracle(poly)
    rng = random.Random(11)
    for m in range(2, 5):
        for k in range(m):
            for _ in range(3):
                poly = VPolytope(flat_points(rng, k, m))
                assert (poly.dim_affine, poly.dim_ambient) == (k, m)
                assert_faces_match_oracle(poly)


def test_faces_closed_under_intersection():
    poly = VPolytope([qp(0, 0), qp(2, 0), qp(2, 2), qp(0, 2)])
    sets = {f.indices for f in poly.faces()}
    for a, b in itertools.combinations(sets, 2):
        c = a & b
        if c:
            assert c in sets


def test_vpolytope_minimizes_vertices():
    p = VPolytope(TRIANGLE + [qp("1/4", "1/4")])
    assert set(p.vertices) == set(TRIANGLE)


# --- segment/hull intersection ----------------------------------------------

def test_segment_disjoint_from_hull():
    seg = Segment(qp(5, 5), qp(6, 6))
    gens = MixedGenerators(open_faces=(tuple(TRIANGLE),))
    assert [seg.piece(iv) for iv in segment_hull_param_intervals(seg, gens)] == []


def test_segment_inside_closed_polytope():
    seg = Segment(qp("1/4", "1/4"), qp("1/2", "1/4"))
    gens = MixedGenerators(points=tuple(TRIANGLE))
    out = [seg.piece(iv) for iv in segment_hull_param_intervals(seg, gens)]
    assert out == [seg]


def test_segment_pm_half_open_result():
    # [m,a] against {[b,c], (p,a)} gives [m,a): the apex is excluded
    seg = Segment(PM_M, PM_A)
    gens = MixedGenerators(segments=(
        Segment(PM_B, PM_C, True, True),
        Segment(PM_P, PM_A, False, False),
    ))
    ivs = segment_hull_param_intervals(seg, gens)
    assert ivs == (Interval(F(0), F(1), True, False),)


def test_segment_intersection_pointwise_consistency():
    rng = random.Random(41)
    seg = Segment(qp(-1, "1/3"), qp(2, "1/3"))
    gens = MixedGenerators(
        segments=(Segment(PM_B, PM_C), Segment(PM_P, PM_A, False, False)),
    )
    ivs = segment_hull_param_intervals(seg, gens)
    for iv1, iv2 in itertools.combinations(ivs, 2):
        assert iv1.intersect(iv2) is None
    for _ in range(50):
        t = F(rng.randint(0, 60), 60)
        inside = pieces_contain(ivs, t)
        assert inside == strict_hull_member(seg.at(t), gens)


def test_standard_simplex():
    s = standard_simplex(2)
    assert set(s.vertices) == set(TRIANGLE)
    assert s.dim_affine == 2


def test_faces_unsupported_dimension():
    with pytest.raises(g.UnsupportedDimension):
        standard_simplex(5).faces()


def test_extreme_points_empty_input():
    with pytest.raises(InputError):
        extreme_points([])
