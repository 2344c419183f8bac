import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from oracles import (
    face_restriction_reference,
    overlapping_pair,
    pieces_contain,
    propagated_pieces,
)

from relconvex import acceptance

from relconvex.errors import InputError
from relconvex.geometry import Segment, VPolytope, extreme_points, hull_member, qp
from relconvex.intervals import Interval
from relconvex.io import polytope_from_json, segment_ground_from_json
from relconvex.segments import (
    SegmentUnionGround,
    SubsegmentSet,
    check_condition_disjoint,
    check_condition_faces,
    face_hom_check,
    face_restriction_check,
    random_closed_set,
    sdv_spot_check,
    seg_closure,
    seg_join,
    seg_meet,
)

A_PT = qp(0, 2)
B_PT = qp(-1, 0)
C_PT = qp(1, 0)
P_PT = qp("-1/4", "1/2")
M_PT = qp("1/4", "1/2")


def pm_ground():
    return SegmentUnionGround([
        Segment(B_PT, C_PT),       # carrier 0: [b, c]
        Segment(P_PT, A_PT),       # carrier 1: [p, a]
        Segment(M_PT, A_PT),       # carrier 2: [m, a]
    ])


def iv(lo, hi, lc=True, hc=True):
    return Interval(F(lo), F(hi), lc, hc)


def pm_sets():
    g = pm_ground()
    a = SubsegmentSet(g, [[iv(0, 1)], [], []])
    b = SubsegmentSet(g, [[], [iv(0, 1, False, False)], []])
    c = SubsegmentSet(g, [[], [], [iv(0, 1, False, False)]])
    return g, a, b, c


def test_closure_of_whole_carrier_is_itself():
    g = pm_ground()
    a = SubsegmentSet(g, [[iv(0, 1)], [], []])
    assert seg_closure(a) == a


def test_closure_of_empty_is_empty():
    g = pm_ground()
    assert seg_closure(SubsegmentSet.empty(g)).is_empty


def test_pm_join_drops_apex():
    g, a, b, c = pm_sets()
    expected = SubsegmentSet(g, [
        [iv(0, 1)],
        [iv(0, 1, True, False)],
        [iv(0, 1, True, False)],
    ])
    assert seg_join(a, b) == expected
    assert seg_join(a, c) == expected


def test_pm_meet_of_cevians_is_empty():
    g, a, b, c = pm_sets()
    assert seg_meet(b, c).is_empty


def test_pm_semidistributivity_fails():
    g, a, b, c = pm_sets()
    ab = seg_join(a, b)
    assert ab == seg_join(a, c)
    assert seg_join(a, seg_meet(b, c)) == a
    assert ab != a
    ok, witness = sdv_spot_check(g, triples=[(a, b, c)])
    assert not ok
    assert witness["a_join_b"] != witness["a_join_meet"]


def test_join_with_empty_is_identity():
    g, a, b, c = pm_sets()
    for s in (a, b, c):
        assert seg_join(s, SubsegmentSet.empty(g)) == s


def test_closure_idempotent_and_extensive():
    g = pm_ground()
    rng = random.Random(3)
    for _ in range(15):
        rows = []
        for _ in range(3):
            if rng.random() < 0.8:
                lo = F(rng.randint(0, 6), 8)
                rows.append([Interval(lo, lo + F(rng.randint(1, 2), 8))])
            else:
                rows.append([])
        y = SubsegmentSet(g, rows)
        cl = seg_closure(y)
        # extensive
        for i in range(3):
            for t in (F(k, 16) for k in range(17)):
                if pieces_contain(y.pieces[i], t):
                    assert pieces_contain(cl.pieces[i], t)
        # idempotent
        assert seg_closure(cl) == cl


def test_closure_monotone_on_nested_pairs():
    # 50 random nested pairs: closure of the smaller set sits inside the
    # closure of the larger, checked pointwise on a parameter grid
    fast = SegmentUnionGround([
        Segment(qp(0, 0), qp(4, 0)), Segment(qp(0, 2), qp(4, 2))])
    grounds = [fast] * 49 + [pm_ground()]
    rng = random.Random(11)
    for g in grounds:
        rows_small, rows_big = [], []
        for _ in range(g.k):
            lo = F(rng.randint(0, 4), 8)
            hi = lo + F(rng.randint(1, 4), 8)
            ext = F(rng.randint(0, 2), 8)
            rows_small.append([Interval(lo, hi)])
            rows_big.append([Interval(max(F(0), lo - ext), min(F(1), hi + ext))])
        small = SubsegmentSet(g, rows_small)
        big = SubsegmentSet(g, rows_big)
        cs, cb = seg_closure(small), seg_closure(big)
        for i in range(g.k):
            for t in (F(k, 8) for k in range(9)):
                if pieces_contain(cs.pieces[i], t):
                    assert pieces_contain(cb.pieces[i], t)


def test_absorption_on_random_closed_pairs():
    g = pm_ground()
    rng = random.Random(17)
    for _ in range(12):
        a = random_closed_set(g, rng)
        b = random_closed_set(g, rng)
        assert seg_meet(a, seg_join(a, b)) == a
        assert seg_join(a, seg_meet(a, b)) == a


# --- sufficient conditions ------------------------------------------------------

def test_condition_disjoint_parallel_segments():
    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(1, 0)),
        Segment(qp(0, 1), qp(1, 1)),
    ])
    ok, pair = check_condition_disjoint(g)
    assert ok and pair is None


def test_condition_disjoint_pm_fails():
    ok, pair = check_condition_disjoint(pm_ground())
    assert not ok
    assert pair == (1, 2)   # the closed cevians share the apex


def test_condition_disjoint_common_point_fails():
    g = SegmentUnionGround([
        Segment(qp(-2, 0), qp(2, 0)),
        Segment(qp(-2, -2), qp(2, 2)),
        Segment(qp(-2, 2), qp(2, -2)),
    ])
    ok, _ = check_condition_disjoint(g)
    assert not ok


def test_condition_faces_triangle_edges():
    tri = VPolytope([B_PT, C_PT, A_PT])
    g = SegmentUnionGround([
        Segment(B_PT, C_PT), Segment(B_PT, A_PT), Segment(C_PT, A_PT)])
    ok, bad = check_condition_faces(g, tri)
    assert ok and bad is None


def test_condition_faces_pm_fails():
    tri = VPolytope([B_PT, C_PT, A_PT])
    ok, bad = check_condition_faces(pm_ground(), tri)
    assert not ok
    assert bad == 1     # [p, a] meets the open interior


def test_condition_faces_interior_crossing_fails():
    square = VPolytope([qp(0, 0), qp(2, 0), qp(2, 2), qp(0, 2)])
    g = SegmentUnionGround([Segment(qp(0, 0), qp(2, 2))])
    ok, bad = check_condition_faces(g, square)
    assert not ok and bad == 0


# --- spot checks on well-behaved grounds ------------------------------------------

def test_single_segment_spot_check_clean():
    g = SegmentUnionGround([Segment(qp(0, 0), qp(4, 0))])
    ok, _ = sdv_spot_check(g, count=200, seed=5)
    assert ok


def test_disjoint_ground_spot_check_clean():
    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(1, 0)),
        Segment(qp(0, 2), qp(1, 2)),
        Segment(qp(3, 1), qp(4, 1)),
    ])
    assert check_condition_disjoint(g)[0]
    ok, _ = sdv_spot_check(g, count=60, seed=7)
    assert ok


def test_triangle_edges_spot_check_clean():
    g = SegmentUnionGround([
        Segment(B_PT, C_PT), Segment(B_PT, A_PT), Segment(C_PT, A_PT)])
    ok, _ = sdv_spot_check(g, count=60, seed=9)
    assert ok


# --- bounded three-lines fixture ----------------------------------------------------
# Golden outcome derived from this module: with bounded segments the two joins
# differ (each captures only the central third of the remaining carrier), so
# the triple that breaks semidistributivity for full lines is vacuous here.

def three_lines_ground():
    return SegmentUnionGround([
        Segment(qp(-2, 0), qp(2, 0)),
        Segment(qp(-2, -2), qp(2, 2)),
        Segment(qp(-2, 2), qp(2, -2)),
    ])


def test_three_lines_bounded_golden_joins():
    g = three_lines_ground()
    a = seg_closure(SubsegmentSet(g, [[iv(0, 1)], [], []]))
    b = seg_closure(SubsegmentSet(g, [[], [iv(0, 1)], []]))
    c = seg_closure(SubsegmentSet(g, [[], [], [iv(0, 1)]]))
    ab = seg_join(a, b)
    ac = seg_join(a, c)
    expected_ab = SubsegmentSet(g, [
        [iv(0, 1)], [iv(0, 1)], [iv("1/3", "2/3")]])
    expected_ac = SubsegmentSet(g, [
        [iv(0, 1)], [iv("1/3", "2/3")], [iv(0, 1)]])
    assert ab == expected_ab
    assert ac == expected_ac
    assert ab != ac
    ok, _ = sdv_spot_check(g, triples=[(a, b, c)])
    assert ok      # the implication is vacuous: the joins differ


def test_three_lines_shared_origin_represented_everywhere():
    g = three_lines_ground()
    origin_on_0 = SubsegmentSet(g, [[Interval.point(F(1, 2))], [], []])
    assert pieces_contain(origin_on_0.pieces[1], F(1, 2))
    assert pieces_contain(origin_on_0.pieces[2], F(1, 2))


# --- extreme points -----------------------------------------------------------------

def carrier_extremes(g: SegmentUnionGround) -> set:
    """Extreme points of the closed hull, read off the carrier endpoints."""
    return set(extreme_points([p for s in g.segments for p in (s.a, s.b)]))


def test_extreme_points_single_segment():
    g = SegmentUnionGround([Segment(qp(0, 0), qp(2, 2))])
    assert carrier_extremes(g) == {qp(0, 0), qp(2, 2)}


def test_extreme_points_pm():
    assert carrier_extremes(pm_ground()) == {A_PT, B_PT, C_PT}


def test_extreme_points_crossing_diagonals():
    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(2, 2)), Segment(qp(0, 2), qp(2, 0))])
    assert carrier_extremes(g) == {qp(0, 0), qp(2, 2), qp(0, 2), qp(2, 0)}


def test_extreme_points_always_endpoint_closures():
    rng = random.Random(31)
    for _ in range(10):
        segs = []
        while len(segs) < rng.randint(1, 4):
            a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            b = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            if a != b and all(not (s.a == a and s.b == b) for s in segs):
                segs.append(Segment(a, b))
        g = SegmentUnionGround(segs)
        endpoints = {s.a for s in segs} | {s.b for s in segs}
        extremes = carrier_extremes(g)
        assert extremes <= endpoints
        assert all(hull_member(p, sorted(extremes)) for p in endpoints)


# --- face restriction ------------------------------------------------------------------

def triangle_and_edge():
    tri = VPolytope([qp(0, 0), qp(4, 0), qp(0, 4)])
    edge = next(f for f in tri.faces()
                if len(f.indices) == 2 and set(f.vertices) == {qp(0, 0), qp(4, 0)})
    return tri, edge


def test_face_restriction_y_inside_face():
    tri, edge = triangle_and_edge()
    assert face_restriction_check([qp(1, 0), qp(3, 0)], tri, edge)


def test_face_restriction_random_finite_sets():
    tri, edge = triangle_and_edge()
    rng = random.Random(23)
    for _ in range(15):
        pts = []
        for _ in range(rng.randint(1, 6)):
            w = [F(rng.randint(0, 4)) for _ in range(3)]
            tot = sum(w) or F(1)
            pts.append(tuple(sum(wi * v[k] for wi, v in zip(w, tri.vertices)) / tot
                             for k in range(2)))
        assert face_restriction_check(pts, tri, edge)


def test_face_restriction_subsegment_sets():
    tri, edge = triangle_and_edge()
    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(4, 0)),
        Segment(qp(1, 0), qp(0, 4)),
    ])
    y = SubsegmentSet(g, [[iv(0, "1/2")], [iv(0, 1, False, True)]])
    assert face_restriction_check(y, tri, edge)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEGMENT_FIXTURES = ["cevian_ground", "disjoint_segments", "three_lines_bounded", "triangle_edges"]


def random_union(g, rng):
    """A hand-built set: up to two random intervals per carrier, canonicalised
    by their hull traces."""
    rows = []
    for _ in range(g.k):
        row = []
        for _ in range(rng.randint(0, 2)):
            a, b = sorted(F(rng.randint(0, 4), 4) for _ in range(2))
            row.append(Interval(a, b, a == b or rng.random() < 0.5, a == b or rng.random() < 0.5))
        rows.append(row)
    return SubsegmentSet(g, rows)


@pytest.mark.parametrize("name", SEGMENT_FIXTURES)
def test_face_restriction_identity_matches_the_per_carrier_oracle(name):
    g = segment_ground_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    tri = polytope_from_json(json.loads((FIXTURES / "triangle.json").read_text()))
    faces = [f for f in tri.faces() if f.is_proper]
    assert len(faces) == 6
    rng = random.Random(name)
    sets = [SubsegmentSet.empty(g)] + [random_closed_set(g, rng) for _ in range(4)] \
        + [random_union(g, rng) for _ in range(4)]
    verdicts = set()
    for y in sets:
        for face in faces:
            ok = face_restriction_check(y, tri, face)
            assert ok == face_restriction_reference(y, face.vertices), (y, face.vertices)
            verdicts.add(ok)
    assert True in verdicts


def test_criterion_8_reports_match_the_oracles(monkeypatch):
    # every Y and ground of the acceptance suite, through the production
    # checks: a subsegment Y agrees with the per-carrier oracle, and every
    # trace report has all four properties and no other key
    reports, restrictions = [], []

    def hom(*args):
        reports.append(face_hom_check(*args))
        return reports[-1]

    def restriction(y, poly, face):
        ok = face_restriction_check(y, poly, face)
        if isinstance(y, SubsegmentSet):
            assert ok == face_restriction_reference(y, face.vertices)
            restrictions.append(ok)
        return ok

    monkeypatch.setattr(acceptance, "face_hom_check", hom)
    monkeypatch.setattr(acceptance, "face_restriction_check", restriction)
    assert acceptance.criterion_8_face_restriction_suite()[0]
    assert len(reports) == 20 and len(restrictions) == 15
    assert all(rep == {"trace_closed": True, "joins": True, "meets": True, "surjective": True}
               for rep in reports)


def test_face_hom_check_small_grounds():
    tri, edge = triangle_and_edge()
    rng = random.Random(29)
    for _ in range(5):
        pts = {qp(0, 0), qp(4, 0)}
        while len(pts) < 6:
            w = [F(rng.randint(0, 3)) for _ in range(3)]
            tot = sum(w) or F(1)
            pts.add(tuple(sum(wi * v[k] for wi, v in zip(w, tri.vertices)) / tot
                          for k in range(2)))
        rep = face_hom_check(sorted(pts), tri, edge)
        assert rep["trace_closed"] and rep["joins"] and rep["meets"] and rep["surjective"], rep
    # a chord through the interior is no face: the trace of {(4,0), (0,4)}
    # joined with {(0,0)} holds (1,1), the join of the traces does not
    chord = (qp(0, 0), qp(2, 2))
    rep = face_hom_check([qp(0, 0), qp(4, 0), qp(0, 4), qp(1, 1)], tri, chord)
    assert rep == {"trace_closed": True, "joins": False, "meets": True, "surjective": True}


def test_ground_validation():
    with pytest.raises(InputError):
        SegmentUnionGround([])
    s = Segment(qp(0, 0), qp(1, 1))
    with pytest.raises(InputError):
        SegmentUnionGround([s, s])


# --- canonical form against the carrier-overlap oracle ----------------------------

def overlap_grounds():
    pm_open_apex = SegmentUnionGround([
        Segment(B_PT, C_PT), Segment(P_PT, A_PT, True, False), Segment(M_PT, A_PT)])
    return {
        "collinear-partial": SegmentUnionGround([
            Segment(qp(0, 0), qp(2, 0)), Segment(qp(1, 0), qp(3, 0))]),
        "collinear-opposite-open": SegmentUnionGround([
            Segment(qp(0, 0), qp(2, 0), True, False),
            Segment(qp(3, 0), qp(1, 0), True, False)]),
        "touch-open-end": SegmentUnionGround([
            Segment(qp(0, 0), qp(1, 0), True, False), Segment(qp(1, 0), qp(1, 1))]),
        "touch-closed-end": SegmentUnionGround([
            Segment(qp(0, 0), qp(1, 0)), Segment(qp(1, 0), qp(2, 1))]),
        "three-through-one": three_lines_ground(),
        "cevian-open-apex": pm_open_apex,
        "collinear-3d-open": SegmentUnionGround([
            Segment(qp(0, 0, 0), qp(2, 2, 2), False, True),
            Segment(qp(2, 2, 2), qp("1/2", "1/2", "1/2"), False, False),
            Segment(qp(1, 1, 1), qp(3, 3, 3), True, False)]),
        "t-junction": SegmentUnionGround([
            Segment(qp(-1, 0), qp(1, 0)), Segment(qp(0, 0), qp(0, 1))]),
    }


def random_pieces(k, rng):
    rows = []
    for _ in range(k):
        row = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            lo, hi = sorted(F(rng.randint(0, 8), 8) for _ in range(2))
            if lo == hi:
                row.append(Interval.point(lo))
            else:
                row.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(overlap_grounds()))
def test_canonical_form_matches_overlap_oracle(name):
    g = overlap_grounds()[name]
    assert check_condition_disjoint(g) == overlapping_pair(g.segments)
    rng = random.Random(sorted(overlap_grounds()).index(name))
    for _ in range(40):
        rows = random_pieces(g.k, rng)
        assert SubsegmentSet(g, rows).pieces == propagated_pieces(g.segments, rows), rows
