import itertools
import random
from fractions import Fraction as F

import pytest

from relconvex.analysis import d_relation
from relconvex.embedding import (
    Construction,
    _barycentric,
    build_construction,
    build_embedding,
    build_ground_set,
    epsilon_search,
    _shrink_labeled,
    p_point,
    verify_lemmas,
)
from relconvex.errors import InputError, ResourceLimitError
from relconvex.geometry import (
    VPolytope,
    centroid,
    qp,
    standard_simplex,
)

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
        build_embedding(4, allow_large=True)


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
    from relconvex.boolsub import _family_code, full_mask, iter_meet_subsemilattices
    from relconvex.io import lattice_to_json

    w = build_embedding(2)
    families = sorted((f for f in iter_meet_subsemilattices(2) if full_mask(2) in f),
                      key=lambda f: (len(f), _family_code(f)))
    assert w.source.labels == [_family_code(f) for f in families]
    assert lattice_to_json(w.source)["elements"] == [sorted(f) for f in families]
