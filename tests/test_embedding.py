import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from relconvex.analysis import d_relation
from relconvex.embedding import (
    Construction,
    _barycentric,
    _corner_samples,
    _eps_ok,
    build_construction,
    build_embedding,
    build_ground_set,
    epsilon_search,
    _shrink_labeled,
    p_point,
    u_polytope,
    verify_lemmas,
)
from relconvex.errors import InputError, ResourceLimitError
from relconvex.geometry import (
    MixedGenerators,
    VPolytope,
    centroid,
    integer_columns,
    qp,
    standard_simplex,
    strict_hull_member,
)
from relconvex.linalg import span_coordinates

from oracles import affine_coordinates, affine_span_dim, face_support, p_point_reference
from test_analysis import agrees_with_oracle, mutations


def test_base_simplex_vertices():
    assert set(standard_simplex(1).vertices) == {qp(0), qp(1)}
    assert set(standard_simplex(2).vertices) == {qp(0, 0), qp(1, 0), qp(0, 1)}
    assert set(standard_simplex(3).vertices) == {qp(0, 0, 0), qp(1, 0, 0), qp(0, 1, 0), qp(0, 0, 1)}


def shrink(poly: VPolytope, ratio: F) -> dict:
    """The vertices of the homothety about the vertex barycenter, by index."""
    return _shrink_labeled(dict(enumerate(poly.vertices)), 1 - ratio)


def test_shrink_identity_at_ratio_one():
    tri = standard_simplex(2)
    assert tuple(shrink(tri, F(1)).values()) == tri.vertices


def test_shrink_triangle_half():
    out = shrink(standard_simplex(2), F(1, 2))
    assert out == {0: qp("1/6", "1/6"), 1: qp("2/3", "1/6"), 2: qp("1/6", "2/3")}


def test_shrink_segment_half():
    out = shrink(VPolytope([qp(0), qp(1)]), F(1, 2))
    assert set(out.values()) == {qp("1/4"), qp("3/4")}


def test_p_point_two_element_set():
    base = standard_simplex(2)
    A = frozenset({0, 2})
    # for |A| = 2 the hull of the single shrunken vertex is that vertex,
    # which lies on the edge
    got = p_point(base, 0, A, 2, F(1, 2))
    labeled = {0: base.vertices[0], 2: base.vertices[2]}
    assert got == _shrink_labeled(labeled, F(1, 2))[0]


def test_p_point_triangle_example():
    base = standard_simplex(2)
    A = frozenset({0, 1, 2})
    # the shrunken hull of {p0, p1} at ratio 1/2 lies on y = 1/6; the edge
    # [p0, p2] is x = 0
    got = p_point(base, 0, A, 2, F(1, 2))
    assert got == qp(0, "1/6")
    # parallel-face symmetry: same second coordinate from the other vertex
    got2 = p_point(base, 1, A, 2, F(1, 2))
    assert got2[1] == got[1] == F(1, 6)


def test_p_point_strictly_between():
    base = standard_simplex(2)
    A = frozenset({0, 1, 2})
    for i in A:
        for j in A - {i}:
            pt = p_point(base, i, A, j, F(1, 3))
            pi, pj = base.vertices[i], base.vertices[j]
            assert pt != pi and pt != pj
            # betweenness: pt = pi + t (pj - pi) with t in (0, 1)
            diffs = [(pt[k] - pi[k], pj[k] - pi[k]) for k in range(2)]
            ts = {a / b for a, b in diffs if b != 0}
            assert len(ts) == 1
            t = ts.pop()
            assert 0 < t < 1


def _p_point_cases():
    """Every (A, i, j) with i != j in A, at four ratios, on the standard
    n-simplex and three seeded random simplices, n = 1..4."""
    rng = random.Random(2004)
    for n in range(1, 5):
        bases = [standard_simplex(n)]
        while len(bases) < 4:
            pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
                   for _ in range(n + 1)]
            if affine_span_dim(pts) == n:
                bases.append(VPolytope(pts, assume_extreme=True))
        for base in bases:
            for size in range(2, n + 2):
                for A in map(frozenset, itertools.combinations(range(n + 1), size)):
                    for i, j in itertools.permutations(sorted(A), 2):
                        for ratio in (F(1, 2), F(1, 3), F(3, 4), F(99, 100)):
                            yield base, i, A, j, ratio


def test_p_point_closed_form_matches_solve():
    cases = 0
    for base, i, A, j, ratio in _p_point_cases():
        assert p_point(base, i, A, j, ratio) == p_point_reference(base, i, A, j, ratio), \
            (base.vertices, i, sorted(A), j, ratio)
        cases += 1
    assert cases == 3552


def test_p_point_rejects_bad_arguments():
    base = standard_simplex(2)
    A = frozenset({0, 1, 2})
    for ratio in (F(0), F(1), F(3, 2)):
        with pytest.raises(InputError):
            p_point(base, 0, A, 1, ratio)
    for i, B, j in ((0, A, 0), (0, frozenset({1, 2}), 1), (0, A - {1}, 1), (0, frozenset({0}), 0)):
        with pytest.raises(InputError):
            p_point(base, i, B, j, F(1, 2))


def test_epsilon_search_n1_trivial():
    eps = epsilon_search(F(1, 2), 1, 0)
    assert eps == F(1, 4)


def test_t_and_u_polytopes_two_element_sets():
    from relconvex.embedding import t_polytope, u_polytope
    base = standard_simplex(1)
    A = frozenset({0, 1})
    t = t_polytope(base, A, F(1, 2), 1)
    u = u_polytope(base, A, F(1, 2), 0)
    # both collapse to the segment between p_0 and its shrunken copy
    assert set(t.vertices) == {qp(0), qp("1/4")}
    assert set(u.vertices) == {qp(0), qp("1/4")}


def test_t_polytope_triangle_quadrilateral():
    from relconvex.embedding import t_polytope
    base = standard_simplex(2)
    A = frozenset({0, 1, 2})
    t = t_polytope(base, A, F(1, 2), 2)
    # two parallel faces: the base edge {p0, p1} and the shrunken line copy
    assert qp(0, 0) in t.vertices and qp(1, 0) in t.vertices
    assert qp(0, "1/6") in t.vertices and qp("5/6", "1/6") in t.vertices
    assert len(t.vertices) == 4


def test_epsilon_search_monotone():
    eps = epsilon_search(F(1, 2), 2, 0)
    from relconvex.embedding import _eps_ok
    base = standard_simplex(2)
    assert _eps_ok(base, 2, 3, F(1, 2), eps)
    assert _eps_ok(base, 2, 3, F(1, 2), eps / 2)


def test_construction_schedule_decreases():
    ctor = build_construction(2)
    assert ctor.amounts[0] > ctor.amounts[1] > ctor.amounts[2] == 0


def test_lemma_report_n1_and_n2():
    for n in (1, 2):
        rep = verify_lemmas(build_construction(n))
        assert rep.ok, [c for c in rep.checks if not c.ok]


def with_amounts(n: int, amounts) -> Construction:
    """The construction on the standard n-simplex with an explicit schedule:
    every face copy shrunk by its level's amount, as build_construction
    stores them."""
    base = standard_simplex(n)
    verts = base.vertices
    ctor = Construction(n=n, base=base, amounts=[F(a) for a in amounts], center=centroid(verts))
    for size in range(1, n + 2):
        for A in map(frozenset, itertools.combinations(range(n + 1), size)):
            ctor.copies[A] = _shrink_labeled({i: verts[i] for i in A}, ctor.amounts[n + 1 - size])
    return ctor


def test_explicit_schedule_rebuilds_the_construction():
    for n in (1, 2):
        ctor = build_construction(n)
        again = with_amounts(n, ctor.amounts)
        assert again.copies == ctor.copies
        assert list(again.copies) == list(ctor.copies)
        assert again.center == ctor.center


def test_negative_control_equal_amounts_fails_nesting():
    ctor = with_amounts(2, [F(1, 2), F(1, 2), F(0)])
    rep = verify_lemmas(ctor)
    assert not rep.ok
    assert any(c.name == "level-nesting" and not c.ok for c in rep.checks)
    # equal amounts on two levels also break the nesting of corners, nothing else
    assert {c.name for c in rep.checks if not c.ok} == {"corner-monotone", "level-nesting"}
    # every pair of the triangle's edge copies, and each edge's two corners in it
    edges = [(0, 1), (0, 2), (1, 2)]
    assert [c.context for c in rep.checks if not c.ok] == (
        [((0, 1, 2), i, j) for i, j in edges]
        + [(e, (0, 1, 2), i) for e in edges for i in e])


def test_negative_control_moved_copy_vertex_fails_slab_only():
    # one vertex of P_A off its shrunken hyperplane (a level set of lambda_j)
    ctor = build_construction(2)
    copy = ctor.copies[frozenset({0, 1, 2})]
    copy[0] = tuple(c + F(1, 1000) for c in copy[0])
    assert {c.name for c in verify_lemmas(ctor).checks if not c.ok} == {"slab"}


def failed_checks(ctor: Construction) -> list[tuple]:
    return [(c.name, c.context) for c in verify_lemmas(ctor).checks if not c.ok]


def test_negative_control_edge_copy_vertex_off_its_line_fails_interior_span_and_level_nesting():
    # one endpoint of the copy of edge {0, 1} lifted off the edge: it leaves
    # the affine hull of every corner tuple of that edge; the edge's slab
    # checks still hold (its lambda_1 is unchanged and its lambda_0 stays
    # above the level of lambda_0), and it stays in its corner of the
    # triangle, but the copy is no longer the schedule shrink of {0, 1},
    # which level-nesting compares for both pairs holding A - 2 = {0, 1}
    ctor = build_construction(2)
    copy = ctor.copies[frozenset({0, 1})]
    copy[0] = (copy[0][0], F(1, 1000))
    assert failed_checks(ctor) == [("interior-span", ((0, 1),)),
                                   ("level-nesting", ((0, 1, 2), 0, 2)),
                                   ("level-nesting", ((0, 1, 2), 1, 2))]


def test_negative_control_edge_copy_vertex_past_a_corner_sample():
    # the same endpoint moved along the edge toward vertex 0, past the
    # midpoint sample of its corner segment: it is outside the open segment
    # of that sample and the other corner, off its slab level, and not the
    # schedule shrink that level-nesting compares
    ctor = build_construction(2)
    copy = ctor.copies[frozenset({0, 1})]
    copy[0] = (copy[0][0] / 4, copy[0][1])
    assert failed_checks(ctor) == [("slab", ((0, 1), 1)), ("interior-span", ((0, 1),)),
                                   ("level-nesting", ((0, 1, 2), 0, 2)),
                                   ("level-nesting", ((0, 1, 2), 1, 2))]


def test_lemma_summary_n3():
    rep = verify_lemmas(build_construction(3))
    counts = {"slab": 28, "corner-in-prisms": 28, "prism-face-pinch": 48,
              "interior-span": 11, "level-nesting": 18, "corner-monotone": 76}
    assert rep.summary() == {name: {"checked": k, "failed": 0} for name, k in counts.items()}


def test_level_nesting_certifies_the_corner_containment_of_the_search():
    # amounts[1] raised to values the schedule search rejects for n = 3: each
    # vertex of a triangle copy leaves the corner polytope of its label, so
    # every pair of the tetrahedron's triangle copies fails level-nesting,
    # while the two-face containment and every other lemma still hold
    built = build_construction(3).amounts
    base = standard_simplex(3)
    for amount in (F(13, 64), F(7, 32), F(15, 64), F(1, 4), F(9, 32), F(5, 16), F(11, 32)):
        assert not _eps_ok(base, 3, 4, built[0], amount)
        failed = failed_checks(with_amounts(3, [built[0], amount, built[2], 0]))
        assert {name for name, _ in failed} == {"level-nesting"}, amount
        if amount == F(1, 4):
            assert failed == [("level-nesting", ((0, 1, 2, 3), i, j))
                              for i, j in itertools.combinations(range(4), 2)]


def test_level_nesting_checks_each_copy_against_the_corners():
    # the copy of edge {0, 1} is A - j for the last j of the triangle A, so
    # only level-nesting's tests on A - j see it; in both cases the two-face
    # containment still holds
    ctor = build_construction(2)
    triangle = frozenset({0, 1, 2})
    copy = ctor.copies[frozenset({0, 1})]
    # vertex 0 moved onto the excluded corner point p(0, A, 1)
    copy[0] = p_point(ctor.base, 0, triangle, 1, 1 - ctor.amounts[0])
    assert failed_checks(ctor) == [("slab", ((0, 1), 1)), ("level-nesting", ((0, 1, 2), 0, 2)),
                                   ("level-nesting", ((0, 1, 2), 1, 2))]
    # vertex 0 lifted off the edge and out of the corner polytope U(A, 0)
    ctor = build_construction(2)
    copy = ctor.copies[frozenset({0, 1})]
    copy[0] = (copy[0][0], F(1, 16))
    assert failed_checks(ctor) == [("interior-span", ((0, 1),)),
                                   ("level-nesting", ((0, 1, 2), 0, 2)),
                                   ("level-nesting", ((0, 1, 2), 1, 2))]


def test_level_nesting_agrees_with_the_schedule_search():
    # on copies built from the schedule, the level-nesting checks of the faces
    # on `size` vertices all hold iff the search accepts the next amount
    rng = random.Random(21)
    schedules = [[F(rng.randint(1, 15), 16), F(rng.randint(1, 31), 64), 0] for _ in range(12)]
    schedules += [[F(1, 2), F(rng.randint(1, 47), 128), F(rng.randint(1, 31), 256), 0]
                  for _ in range(3)]
    # next amount 2/3 of the last: the copy of each edge {m, j} puts its
    # vertex m on the excluded corner point p(m, A, j)
    schedules += [[a, 2 * a / 3, 0] for a in (F(1, 2), F(3, 8), F(3, 4))]
    accepted = set()
    for amounts in schedules:
        n = len(amounts) - 1
        rep = verify_lemmas(with_amounts(n, amounts))
        for size in range(3, n + 2):
            level = n + 1 - size
            ok = all(c.ok for c in rep.checks
                     if c.name == "level-nesting" and len(c.context[0]) == size)
            search = _eps_ok(standard_simplex(n), n, size, F(amounts[level]), amounts[level + 1])
            assert ok == search, (amounts, size)
            accepted.add(ok)
    assert accepted == {True, False}


def corner_tuples(ctor: Construction):
    """(A, qs, vertices of P_A) for every corner tuple that interior-span(A)
    samples, in its order."""
    n, base = ctor.n, ctor.base
    for size in range(2, n + 2):
        ratio = 1 - ctor.amounts[n + 1 - size]
        for A in map(frozenset, itertools.combinations(range(n + 1), size)):
            choices = [_corner_samples(u_polytope(base, A, ratio, i),
                                       {p_point(base, i, A, j, ratio) for j in A - {i}})
                       for i in sorted(A)]
            ws = list(ctor.copies[A].values())
            for qs in itertools.product(*choices):
                yield A, qs, ws


def routes_agree(qs, ws) -> list[bool]:
    """The strict LP's verdicts on each w, checked against the elimination
    (every coordinate over qs positive); a dependent qs, which no corner
    tuple is, gives None."""
    cols = integer_columns([*qs, *ws])
    coords = span_coordinates(cols[:len(qs)], cols[len(qs):])
    gens = MixedGenerators(open_faces=(qs,))
    strict = [strict_hull_member(w, gens) for w in ws]
    if affine_span_dim(qs) < len(qs) - 1:
        assert coords is None, (qs, ws)
    else:
        assert [c is not None and min(c) > 0 for c in coords] == strict, (qs, ws)
    return strict


def test_interior_span_elimination_matches_strict_lp_on_the_constructions():
    for n, stride, total in ((1, 1, 4), (2, 1, 76), (3, 29, 2681)):
        cases = list(corner_tuples(build_construction(n)))
        assert len(cases) == total
        for _, qs, ws in cases[::stride]:
            assert all(routes_agree(qs, ws))
    rng = random.Random(17)
    seen = set()
    for _ in range(6):
        a0 = F(rng.randint(1, 15), 16)
        ctor = with_amounts(2, [a0, a0 * F(rng.randint(1, 15), 16), 0])
        for A, qs, ws in corner_tuples(ctor):
            # lift one vertex of each copy off its face or along it, so that
            # both verdicts occur
            w = ws[0]
            moved = [(w[0], w[1] + F(rng.randint(-3, 3), 64)), *ws[1:]]
            seen.update(routes_agree(qs, moved))
    assert seen == {True, False}


def test_interior_span_elimination_on_hand_built_tuples():
    tri = (qp(0, 0), qp(1, 0), qp(0, 1))
    # a repeated point, and three collinear points in the 2-face: dependent,
    # so the elimination refuses them
    for qs in ((qp(0, 0), qp(0, 0), qp(1, 0)), (qp(0, 0), qp("1/2", 0), qp(1, 0))):
        assert routes_agree(qs, [qp("1/4", 0)]) == [True]
    # w off the affine hull of an edge, and w inside it
    assert routes_agree(tri[:2], [qp("1/2", "1/4"), qp("1/2", 0)]) == [False, True]
    # w on the boundary of the triangle (a zero coordinate), then inside
    assert routes_agree(tri, [qp("1/2", 0), qp(0, 0), qp("1/3", "1/3")]) == [False, False, True]
    # w outside: a negative coordinate
    assert routes_agree(tri, [qp(1, 1), qp("-1/8", "1/2")]) == [False, False]


def test_interior_span_elimination_matches_strict_lp_on_random_tuples():
    # points of the standard 3-simplex on a coarse grid, so repeated points,
    # coplanar and collinear tuples, and targets on a boundary are common
    rng = random.Random(2004)
    grid = [F(k, 4) for k in range(5)]

    def point():
        while True:
            q = tuple(rng.choice(grid) for _ in range(3))
            if sum(q) <= 1:
                return q

    dependent, verdicts = set(), set()
    for _ in range(300):
        qs = tuple(point() for _ in range(rng.randint(2, 4)))
        ws = [point() for _ in range(3)] + [centroid(list(qs))]
        verdicts.update(routes_agree(qs, ws))
        dependent.add(affine_span_dim(qs) < len(qs) - 1)
    assert dependent == verdicts == {True, False}


def test_corner_tuples_are_affinely_independent_for_any_amounts():
    # every point q of U(A, i) has lambda_i(q) >= 1 - amount/|A| > 1/2 and
    # is zero outside A, so the lambda matrix of a tuple is column-diagonally
    # dominant on A; amounts near 1 keep the margin smallest
    for amounts in ([F(63, 64), F(63, 64), 0], [F(1, 64), F(1, 128), 0],
                    [F(127, 128), F(63, 64), F(31, 32), 0]):
        ctor = with_amounts(len(amounts) - 1, amounts)
        for A, qs, _ in corner_tuples(ctor):
            for i, q in zip(sorted(A), qs):
                lam = _barycentric(q)
                assert lam[i] > F(1, 2) and all(lam[m] == 0 for m in range(ctor.n + 1) if m not in A)
        # the lemma run decides each of those tuples without tripping the
        # elimination's independence assert
        assert any(c.name == "interior-span" for c in verify_lemmas(ctor).checks)


def test_barycentric_closed_form_matches_solve():
    rng = random.Random(13)
    for n in range(1, 5):
        verts = standard_simplex(n).vertices
        for _ in range(25):
            q = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
            assert _barycentric(q) == tuple(affine_coordinates(q, verts))


def test_ground_point_supports_match_the_linear_solve():
    # build_embedding reads each point's open face off the closed form
    for n in (1, 2, 3):
        _, ground, _ = build_ground_set(n)
        simplex = standard_simplex(n)
        for x in ground.points:
            lam = _barycentric(x)
            assert min(lam) >= 0
            assert sum(1 << i for i, c in enumerate(lam) if c > 0) == face_support(x, simplex)


def test_lemmas_reject_a_base_other_than_the_standard_simplex():
    ctor = build_construction(1)
    base = VPolytope([qp(0), qp(2)])
    moved = Construction(n=1, base=base, amounts=ctor.amounts, center=qp(1))
    with pytest.raises(InputError):
        verify_lemmas(moved)
    reordered = Construction(n=1, base=VPolytope([qp(1), qp(0)], assume_extreme=True),
                             amounts=ctor.amounts, center=ctor.center, copies=ctor.copies)
    with pytest.raises(InputError):
        verify_lemmas(reordered)


def test_ground_set_counts():
    _, g1, _ = build_ground_set(1)
    assert g1.n == 3
    _, g2, _ = build_ground_set(2)
    assert g2.n == 10


def test_ground_set_center_inside():
    ctor, g, labels = build_ground_set(2)
    assert labels[0] == "v"
    assert g.points[0] == qp("1/3", "1/3")


def test_ground_set_deterministic():
    _, a, _ = build_ground_set(2)
    _, b, _ = build_ground_set(2)
    assert a.points == b.points


def test_copy_vertex_sets_have_full_size():
    ctor = build_construction(2)
    from itertools import combinations
    for size in (1, 2, 3):
        for A in map(frozenset, combinations(range(3), size)):
            poly = VPolytope(list(ctor.copies[A].values()))
            assert len(poly.vertices) == size


def test_embedding_n1_fully_verified():
    w = build_embedding(1)
    assert w.verified
    assert w.report["families_total"] == 14
    assert w.report["families_top"] == 7
    assert w.report["target_size"] == 7
    assert w.report["lower_bounded"] is True
    # bottom goes to the empty trace
    bot = w.source.bottom()
    assert w.image[bot] == 0


def test_a_non_closed_image_is_not_verified():
    """map_defects lets a non-closed image of a join-irreducible pass the
    join check when the bottom maps to 0 (the union is then the image), so
    only image_closed and embedding_verified may be false."""
    w = build_embedding(1)
    assert w.verified
    report = {**w.report, "image_closed": False, "embedding_verified": False}
    assert not dataclasses.replace(w, report=report).verified


def test_embedding_n2_embeds_but_target_not_lower_bounded():
    w = build_embedding(2)
    assert w.report["lemmas_ok"]
    assert w.report["piece_audit_ok"]
    assert w.report["injective"]
    assert w.report["meet_preserving"]
    assert w.report["join_preserving"]
    assert w.report["embedding_verified"]
    assert w.report["image_closed"]
    assert w.report["families_top"] == 61
    assert w.report["ground_size"] == 10
    # Each base edge carries four collinear ground points (two vertices and
    # the two copy endpoints), whose closed-subset lattice embeds as a
    # sublattice and has a join-dependency cycle; lower boundedness is
    # therefore impossible for this ground set.
    assert w.report["lower_bounded"] is False
    # the embedded sublattice itself is still lower bounded
    assert w.report["source_lower_bounded"] is True
    assert not w.verified
    assert w.defect is not None and w.defect.kind == "d-cycle"


@pytest.mark.parametrize("n", [1, 2])
def test_embedding_map_checks_match_the_table_oracle(n):
    w = build_embedding(n)
    assert not any(agrees_with_oracle(w.source, w.ground, w.image).values())
    rng = random.Random(n)
    for _ in range(4):
        for mutated in mutations(rng, w.ground, w.image):
            agrees_with_oracle(w.source, w.ground, mutated)


def test_embedding_n2_d_cycle_revalidates():
    w = build_embedding(2)
    lat = w.target
    graph = d_relation(lat)
    cycle = w.defect.elements
    assert cycle[0] == cycle[-1]
    for a, b in zip(cycle, cycle[1:]):
        assert b in graph[a]


def test_embedding_n2_d_relation_shape():
    # the parts of the join-dependency shape that do hold: the center relates
    # to every other singleton, nothing relates to the center, and no edge
    # goes from a smaller face copy to a strictly larger one; the only
    # same-level edges are between siblings on one edge
    w = build_embedding(2)
    lat, labels = w.target, w.labels
    graph = d_relation(lat)
    ji_point = {}
    for ji in graph:
        mask = lat.labels[ji]
        assert mask.bit_count() == 1
        ji_point[ji] = mask.bit_length() - 1
    size_of = {i: (0 if lab == "v" else len(lab[1])) for i, lab in enumerate(labels)}
    v_ji = next(ji for ji, p in ji_point.items() if labels[p] == "v")
    assert set(graph[v_ji]) == set(graph) - {v_ji}
    for a, targets in graph.items():
        for b in targets:
            assert b != v_ji
            if a == v_ji:
                continue
            pa, pb = ji_point[a], ji_point[b]
            assert size_of[pb] <= size_of[pa]
            if size_of[pb] == size_of[pa]:
                # siblings: endpoints of the same shrunken copy
                assert labels[pa][1] == labels[pb][1]


def test_embedding_rejects_large_n():
    with pytest.raises(ResourceLimitError):
        build_embedding(3)
    with pytest.raises(ResourceLimitError):
        build_embedding(4)


@pytest.mark.parametrize("n", [0, -1])
def test_embedding_rejects_n_below_1_as_input(n):
    for build in (build_embedding, build_ground_set):
        with pytest.raises(InputError, match="n >= 1"):
            build(n)


def test_embedding_target_is_convex_geometry():
    # the 300-element target lattice still satisfies the finite-ground
    # properties: join-semidistributive, weak atom property, anti-exchange
    from relconvex.analysis import (
        check_anti_exchange,
        check_jsd,
        check_weak_atom_property,
    )

    w = build_embedding(2)
    assert check_jsd(w.target)[0]
    assert check_weak_atom_property(w.target)[0]
    assert check_anti_exchange(w.ground)[0]


def family(code: int) -> frozenset[int]:
    return frozenset(m for m in range(code.bit_length()) if code >> m & 1)


def test_embedding_source_join_meet_semantics():
    # joins in the source are meet-closures of unions; meets are intersections
    from oracles import meet_closure

    w = build_embedding(1)
    lat = w.source
    for i in range(lat.n):
        for j in range(lat.n):
            a, b = family(lat.labels[i]), family(lat.labels[j])
            assert family(lat.labels[lat.meet_table[i, j]]) == a & b
            assert family(lat.labels[lat.join_table[i, j]]) == meet_closure(a | b)


def test_source_elements_are_the_sorted_family_members():
    # elements are labelled by family code, smaller families first; the
    # lattice document lists each family's sorted members
    from oracles import family_code, iter_meet_subsemilattices
    from relconvex.boolsub import full_mask
    from relconvex.io import lattice_to_json

    w = build_embedding(2)
    families = sorted((f for f in iter_meet_subsemilattices(2) if full_mask(2) in f),
                      key=lambda f: (len(f), family_code(f)))
    assert w.source.labels == [family_code(f) for f in families]
    assert lattice_to_json(w.source)["elements"] == [sorted(f) for f in families]
