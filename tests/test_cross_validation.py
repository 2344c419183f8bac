"""Heavier dual-route checks: every result below is produced by two
independent computations (combinatorial vs LP-certificate, symbolic vs
sampled) that must agree exactly."""

import itertools
import random
from fractions import Fraction as F

from relconvex.boolsub import face_generators, full_mask
from relconvex.closure import FiniteGround
from relconvex.geometry import (
    MixedGenerators,
    Segment,
    VPolytope,
    hull_member,
    qp,
    segment_hull_param_intervals,
    standard_simplex,
    strict_hull_member,
)
from relconvex.intervals import Interval
from relconvex.segments import SegmentUnionGround, SubsegmentSet, seg_closure

from oracles import face_support, iter_meet_subsemilattices, phi, pieces_contain, supports_face


def test_cube_faces_against_lp_oracle():
    cube = VPolytope([qp(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    faces = {f.indices for f in cube.faces()}
    # 8 vertices + 12 edges + 6 facets + the cube
    assert len(faces) == 27
    n = len(cube.vertices)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            s = frozenset(subset)
            assert (s in faces) == supports_face(cube, s), sorted(s)


def test_hexagon_faces_against_lp_oracle():
    hexagon = VPolytope([qp(0, 0), qp(4, 0), qp(6, 3), qp(4, 6), qp(0, 6), qp(-2, 3)])
    faces = {f.indices for f in hexagon.faces()}
    assert len(faces) == 13     # 6 vertices + 6 edges + itself
    for r in range(1, 7):
        for subset in itertools.combinations(range(6), r):
            s = frozenset(subset)
            assert (s in faces) == supports_face(hexagon, s)


def test_strict_membership_dense_witness_scan_cevians():
    # strict membership on the cevian configuration, cross-checked by a dense
    # rational scan over witness combinations mu*w + (1-mu)*z with w on the
    # base segment and z strictly inside the open cevian
    b, c = qp(-1, 0), qp(1, 0)
    p, a = qp("-1/4", "1/2"), qp(0, 2)
    base = Segment(b, c)
    cevian = Segment(p, a, False, False)
    gens = MixedGenerators(segments=(base, cevian))
    grid = [(F(i, 4), F(j, 4)) for i in range(-4, 5) for j in range(0, 9)]
    samples = 16
    scan = set()
    for mu_n in range(samples + 1):
        mu = F(mu_n, samples)
        for wn in range(samples + 1):
            w = base.at(F(wn, samples))
            for zn in range(1, samples):
                z = cevian.at(F(zn, samples))
                scan.add(tuple(mu * wc + (1 - mu) * zc for wc, zc in zip(w, z)))
    for q in grid:
        by_lp = strict_hull_member(q, gens)
        # the scan underapproximates (witness parameters are quantized): it
        # may miss members, but a scan hit must be an LP hit, and an LP hit
        # must at least be a closed-hull member
        if q in scan:
            assert by_lp
        if by_lp:
            assert hull_member(q, [b, c, p, a])


def test_segment_intersection_brute_parameter_scan():
    rng = random.Random(77)
    tri_gens = MixedGenerators(open_faces=((qp(0, 0), qp(4, 0), qp(0, 4)),))
    for _ in range(6):
        pa = (F(rng.randint(-2, 5)), F(rng.randint(-2, 5)))
        pb = (F(rng.randint(-2, 5)), F(rng.randint(-2, 5)))
        if pa == pb:
            continue
        seg = Segment(pa, pb)
        ivs = segment_hull_param_intervals(seg, tri_gens)
        for k in range(0, 49):
            t = F(k, 48)
            assert pieces_contain(ivs, t) == strict_hull_member(seg.at(t), tri_gens)


def test_phi_traces_match_strict_membership_n2():
    # the symbolic piece-of-point assignment agrees with the LP route for
    # every family image and every ground point of the planar construction
    from relconvex.embedding import build_ground_set

    simplex = standard_simplex(2)
    _, ground, _ = build_ground_set(2)
    fams = [f for f in iter_meet_subsemilattices(2) if full_mask(2) in f]
    rng = random.Random(13)
    rng.shuffle(fams)
    for fam in fams[:10]:
        image = phi(fam, simplex)
        gens = face_generators(simplex, image)
        for x in ground.points:
            symbolic = face_support(x, simplex) in image
            via_lp = False if gens is None else strict_hull_member(x, gens)
            assert symbolic == via_lp


def test_closure_of_point_pieces_matches_finite_ground():
    # closing two degenerate point pieces in the segment world must agree,
    # at every sample point, with the finite-ground closure of those points
    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(4, 0)),
        Segment(qp(0, 0), qp(0, 4)),
    ])
    params = [F(k, 8) for k in range(9)]
    pts = sorted({g.segments[i].at(t) for i in range(2) for t in params})
    fg = FiniteGround(pts)
    q1, q2 = g.segments[0].at(F(1, 4)), g.segments[0].at(F(3, 4))
    mask = (1 << pts.index(q1)) | (1 << pts.index(q2))
    cl_mask = fg.closure_mask(mask)
    members = {pts[i] for i in range(len(pts)) if cl_mask >> i & 1}
    y = SubsegmentSet(g, [[Interval.point(F(1, 4)), Interval.point(F(3, 4))], []])
    cl = seg_closure(y)
    for i in range(2):
        for t in params:
            assert pieces_contain(cl.pieces[i], t) == (g.segments[i].at(t) in members)
