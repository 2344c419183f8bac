"""Property-based and bulk-invariant tests."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interval_contains, pieces_contain
from relconvex.analysis import check_jsd
from relconvex.closure import FiniteGround
from relconvex.geometry import (
    MixedGenerators,
    Segment,
    hull_member,
    qp,
    strict_hull_member,
)
from relconvex.intervals import Interval, intersect_unions, union_intervals
from relconvex.segments import SegmentUnionGround, random_closed_set

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def interval_strategy():
    return st.tuples(rationals, rationals, st.booleans(), st.booleans()).map(
        lambda t: Interval(min(t[0], t[1]), max(t[0], t[1]),
                           t[2] or t[0] == t[1], t[3] or t[0] == t[1]))


@given(st.lists(interval_strategy(), max_size=6))
def test_union_canonical_idempotent(ivs):
    once = union_intervals(ivs)
    assert union_intervals(once) == once
    for a, b in itertools.combinations(once, 2):
        assert a.intersect(b) is None


@given(st.lists(interval_strategy(), max_size=5), interval_strategy())
@settings(max_examples=60)
def test_union_membership_pointwise(ivs, probe):
    merged = union_intervals(ivs)
    for t in [probe.lo, probe.hi, (probe.lo + probe.hi) / 2]:
        direct = pieces_contain(ivs, t)
        canon = pieces_contain(merged, t)
        assert direct == canon


@given(interval_strategy(), interval_strategy())
def test_intersection_commutative_and_pointwise(a, b):
    ab = a.intersect(b)
    ba = b.intersect(a)
    assert ab == ba
    for t in [a.lo, a.hi, b.lo, b.hi, (a.lo + b.hi) / 2]:
        expected = interval_contains(a, t) and interval_contains(b, t)
        got = ab is not None and interval_contains(ab, t)
        assert got == expected


@given(st.lists(interval_strategy(), min_size=1, max_size=4),
       st.lists(interval_strategy(), min_size=1, max_size=4))
@settings(max_examples=40)
def test_intersect_unions_pointwise(xs, ys):
    inter = intersect_unions(xs, ys)
    probes = {iv.lo for iv in xs + ys} | {iv.hi for iv in xs + ys}
    for t in probes:
        expected = pieces_contain(xs, t) and pieces_contain(ys, t)
        assert pieces_contain(inter, t) == expected


points2 = st.tuples(rationals, rationals)


@given(st.lists(points2, min_size=1, max_size=5), points2)
@settings(max_examples=50, deadline=None)
def test_closed_hull_extends_strict(pts, q):
    segs = []
    for a, b in zip(pts, pts[1:]):
        if a != b:
            segs.append(Segment(a, b, False, False))
    if not segs:
        return
    gens = MixedGenerators(segments=tuple(segs))
    if strict_hull_member(q, gens):
        closed_pts = [s.a for s in segs] + [s.b for s in segs]
        assert hull_member(q, closed_pts)


@given(st.sets(points2, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_closure_operator_axioms(pts):
    g = FiniteGround(sorted(pts))
    full = (1 << g.n) - 1
    for mask in range(min(full + 1, 32)):
        cl = g.closure_mask(mask)
        assert cl & mask == mask
        assert g.closure_mask(cl) == cl
        bigger = g.closure_mask(mask | (full & 0b101))
        assert bigger & cl == cl or not (mask | (full & 0b101)) >= mask


# --- bulk invariants ------------------------------------------------------------


def test_lattice_tables_axioms_midsize():
    # a ground with a lattice in the low hundreds: operations must satisfy
    # commutativity, associativity and absorption everywhere
    pts = [qp(x, y) for x, y in [(0, 0), (4, 0), (0, 4), (4, 4), (2, 1), (1, 2), (3, 3)]]
    lat = FiniteGround(pts).lattice()
    assert 50 <= lat.n <= 200
    J, M = lat.join_table, lat.meet_table
    n = lat.n
    assert (J == J.T).all() and (M == M.T).all()
    idx = np.arange(n)
    for a in range(n):
        assert (J[a, M[a]] == a).all()
        assert (M[a, J[a]] == a).all()
        assert (J[J[a, :][:, None], idx[None, :]] == J[a, J]).all()
        assert (M[M[a, :][:, None], idx[None, :]] == M[a, M]).all()


def test_subm_lattice_axioms_sampled_n2():
    from oracles import all_families_lattice, inclusion_order_reference

    lat = all_families_lattice(2)
    assert (lat.leq == inclusion_order_reference(lat.labels)).all()
    J, M = lat.join_table, lat.meet_table
    assert (J == J.T).all() and (M == M.T).all()
    rng = random.Random(6)
    idx = np.arange(lat.n)
    for _ in range(30):
        a = rng.randrange(lat.n)
        assert (J[J[a, :][:, None], idx[None, :]] == J[a, J]).all()
        assert (M[M[a, :][:, None], idx[None, :]] == M[a, M]).all()
        assert (J[a, M[a]] == a).all()


def test_finite_subsets_of_segment_grounds_are_jsd():
    # sampled finite point sets from a segment-union ground always give a
    # join-semidistributive closed-set lattice
    g = SegmentUnionGround([
        Segment(qp(-1, 0), qp(1, 0)),
        Segment(qp("-1/4", "1/2"), qp(0, 2)),
        Segment(qp("1/4", "1/2"), qp(0, 2)),
    ])
    rng = random.Random(12)
    for _ in range(10):
        pts = set()
        while len(pts) < rng.randint(3, 7):
            carrier = g.segments[rng.randrange(g.k)]
            t = F(rng.randint(0, 8), 8)
            pts.add(carrier.at(t))
        ok, _ = check_jsd(FiniteGround(sorted(pts)).lattice())
        assert ok


def test_grid_iteration_soundness():
    # iterate segment drawing restricted to a rational grid: everything the
    # iteration reaches must be a hull member (the grid refines no further)
    pts = [qp(0, 0), qp(1, 0), qp(0, 1)]
    denom = 4
    grid = [qp(F(i, denom), F(j, denom))
            for i in range(-2, denom * 2) for j in range(-2, denom * 2)]
    reached = set(pts)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(reached)
        for a, b in itertools.combinations(snapshot, 2):
            for gpt in grid:
                if gpt in reached:
                    continue
                # gpt on [a, b]?
                d1 = tuple(x - y for x, y in zip(b, a))
                d2 = tuple(x - y for x, y in zip(gpt, a))
                if d1[0] * d2[1] == d1[1] * d2[0]:
                    dots = [(d2[k] * d1[k], d1[k] * d1[k]) for k in range(2)]
                    num = sum(d[0] for d in dots)
                    den = sum(d[1] for d in dots)
                    if 0 <= num <= den:
                        reached.add(gpt)
                        changed = True
    for gpt in reached:
        assert hull_member(gpt, pts)
    # on this instance the grid iteration is also complete
    for gpt in grid:
        if hull_member(gpt, pts):
            assert gpt in reached


def test_random_closed_sets_are_closed():
    from relconvex.segments import seg_closure

    g = SegmentUnionGround([
        Segment(qp(0, 0), qp(4, 0)), Segment(qp(0, 2), qp(4, 2))])
    rng = random.Random(3)
    for _ in range(10):
        s = random_closed_set(g, rng)
        assert seg_closure(s) == s
