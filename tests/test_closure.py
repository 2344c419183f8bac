import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattices
from oracles import order_lattice, witness_table_reference
from relconvex import closure as closure_module
from relconvex.analysis import check_anti_exchange
from relconvex.closure import FiniteGround, next_closure
from relconvex.embedding import build_ground_set
from relconvex.errors import InputError, ResourceLimitError
from relconvex.geometry import caratheodory_witness, qp
from relconvex.lattice import MAX_ELEMENTS, FiniteLattice
from relconvex.linalg import rref_int


def random_ground(rng, size, dim=2, span=4):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(F(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(dim)))
    return FiniteGround(sorted(pts))


def test_closure_empty_is_empty():
    g = lattices.collinear_ground([0, 1, 2])
    assert g.closure_mask(0) == 0


def test_closure_order_convex_on_line():
    g = lattices.collinear_ground([0, 1, 2, 3])
    # {x1, x3} closes to {x1, x2, x3}
    assert g.closure_mask(0b101) == 0b111


def test_closure_centroid():
    g = FiniteGround([qp(0, 0), qp(3, 0), qp(0, 3), qp(1, 1)])
    assert g.closure_mask(0b0111) == 0b1111


def test_closure_axioms_exhaustive_small():
    rng = random.Random(3)
    g = random_ground(rng, 6)
    for mask in range(1 << g.n):
        cl = g.closure_mask(mask)
        assert cl & mask == mask                      # extensive
        assert g.closure_mask(cl) == cl               # idempotent
    for _ in range(200):
        a = rng.randrange(1 << g.n)
        b = a | rng.randrange(1 << g.n)
        ca, cb = g.closure_mask(a), g.closure_mask(b)
        assert ca & cb == ca                          # monotone


def test_three_collinear_points_seven_closed_sets():
    g = lattices.collinear_ground([0, 1, 2])
    assert len(g.enumerate_closed_masks()) == 7


def test_three_non_collinear_points_boolean():
    g = FiniteGround([qp(0, 0), qp(1, 0), qp(0, 1)])
    assert len(g.enumerate_closed_masks()) == 8


def test_four_collinear_points_eleven_closed_sets():
    g = lattices.collinear_ground([0, 1, 2, 3])
    masks = g.enumerate_closed_masks()
    assert len(masks) == 11
    assert sorted(masks) == g.scan_closed_masks()


def test_nextclosure_matches_bruteforce_randomized():
    rng = random.Random(11)
    for _ in range(15):
        g = random_ground(rng, rng.randint(3, 8), dim=rng.choice([1, 2, 3]))
        assert sorted(g.enumerate_closed_masks()) == sorted(g.scan_closed_masks())


def test_resource_bound():
    g = lattices.collinear_ground(range(8))
    with pytest.raises(ResourceLimitError):
        g.enumerate_closed_masks(max_ground=5)
    closed = g.enumerate_closed_masks()
    # the kept enumeration still answers to the bound of every call
    with pytest.raises(ResourceLimitError, match="exceeds the enumeration bound 5"):
        g.enumerate_closed_masks(max_ground=5)
    assert g.enumerate_closed_masks(max_ground=8) == closed


def test_next_closure_stops_past_the_element_bound():
    # the Boolean lattice on 12 points has exactly MAX_ELEMENTS closed sets
    assert len(next_closure(12, lambda mask: mask)) == MAX_ELEMENTS
    with pytest.raises(ResourceLimitError, match=f"more than {MAX_ELEMENTS} closed sets"):
        next_closure(13, lambda mask: mask)


def test_anti_exchange_and_lattice_share_one_enumeration(monkeypatch):
    runs = []

    def counted(n, closure):
        runs.append(n)
        return next_closure(n, closure)

    monkeypatch.setattr(closure_module, "next_closure", counted)
    g = random_ground(random.Random(41), 7)
    assert check_anti_exchange(g) == (True, None)
    lat = g.lattice()
    assert runs == [7]
    assert sorted(lat.labels) == sorted(g.scan_closed_masks())


def test_enumeration_returns_a_fresh_list():
    g = random_ground(random.Random(42), 6)
    first = g.enumerate_closed_masks()
    expected = list(first)
    first.reverse()
    first.append(-1)
    assert g.enumerate_closed_masks() == expected


@pytest.mark.parametrize("k", [13, 16, 20])
def test_convex_grounds_within_max_ground_stop_at_the_element_bound(k):
    # points on a parabola are in convex position: 2^k closed sets
    g = FiniteGround([(F(i), F(i * i)) for i in range(k)])
    with pytest.raises(ResourceLimitError, match="closed sets"):
        g.enumerate_closed_masks()


def test_ground_rejects_duplicates():
    with pytest.raises(InputError):
        FiniteGround([qp(0, 0), qp(0, 0)])


def test_bottom_is_closure_of_empty():
    rng = random.Random(7)
    for _ in range(5):
        g = random_ground(rng, 5)
        lat = g.lattice()
        assert lat.labels[lat.bottom()] == g.closure_mask(0)
        assert lat.n == len(g.enumerate_closed_masks())


def oracle_grounds(rng):
    """Grounds of at most 7 points in dimensions 1-3 with mixed
    denominators: general position, collinear and (in 3-D) coplanar."""
    def rat():
        return F(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 7, 12]))

    grounds = []
    for dim in (1, 2, 3):
        for kind in ("general", "collinear", "coplanar"):
            if (kind == "coplanar" and dim < 3) or (kind == "collinear" and dim == 1):
                continue
            size = rng.randint(4, 7)
            base = [tuple(rat() for _ in range(dim)) for _ in range(2)]
            pts = set()
            while len(pts) < size:
                if kind == "general":
                    pts.add(tuple(rat() for _ in range(dim)))
                    continue
                ts = [rat() for _ in base]
                if kind == "collinear":
                    ts = ts[:1]
                origin = (F(1, 3),) * dim
                pts.add(tuple(origin[k] + sum(t * b[k] for t, b in zip(ts, base))
                              for k in range(dim)))
            grounds.append(FiniteGround(sorted(pts)))
    return grounds


def test_closure_matches_caratheodory_oracle():
    rng = random.Random(2024)
    for g in [g for _ in range(4) for g in oracle_grounds(rng)]:
        for mask in range(1 << g.n):
            gens = [g.points[j] for j in range(g.n) if mask >> j & 1]
            expect = mask
            for x in range(g.n):
                if not mask >> x & 1 and caratheodory_witness(g.points[x], gens) is not None:
                    expect |= 1 << x
            assert g.closure_mask(mask) == expect


def test_stored_witnesses_are_inclusion_minimal():
    rng = random.Random(2025)
    for g in oracle_grounds(rng):
        for x, witnesses in enumerate(g._witness_table()):
            for w in witnesses:
                members = [j for j in range(g.n) if w >> j & 1]
                assert x not in members and len(members) <= g.dim + 1
                assert caratheodory_witness(g.points[x], [g.points[j] for j in members]) is not None
                for drop in members:
                    rest = [g.points[j] for j in members if j != drop]
                    assert caratheodory_witness(g.points[x], rest) is None


def test_witness_table_invariant_under_affine_rescaling():
    # x -> x/k + c with k about 1e9 and a non-integer shift, so the
    # integer scaling of the table runs on big ints
    rng = random.Random(2026)
    k = 10**9 + 7
    for g in oracle_grounds(rng):
        shift = [F(rng.randint(-50, 50), rng.choice([3, 7, 10])) for _ in range(g.dim)]
        image = FiniteGround([tuple(c / k + s for c, s in zip(p, shift)) for p in g.points])
        assert image._witness_table() == g._witness_table()
        for mask in range(1 << g.n):
            assert image.closure_mask(mask) == g.closure_mask(mask)


# --- the subset-first witness table against the per-point search -------------

BIG = 10**9
big_rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
weights = st.builds(F, st.integers(-1, 3), st.integers(2, 8))


@st.composite
def witness_grounds(draw):
    """Up to 8 points in Q^1..Q^4 with denominators up to 1e9: a few free
    points, plus points forced into the affine hull of 2, 3 or dim + 1 drawn
    points (a line, a plane, a full simplex) by small affine weights, often
    convex ones, so that hulls catch them."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[big_rationals] * dim)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    for k in draw(st.lists(st.sampled_from([2, 3, dim + 1]), max_size=2)):
        base = draw(st.lists(point, min_size=k, max_size=k))
        pts.extend(base)
        for _ in range(draw(st.integers(1, 3))):
            ws = draw(st.lists(weights, min_size=k - 1, max_size=k - 1))
            pts.append(tuple(base[0][c] + sum(w * (b[c] - base[0][c]) for w, b in zip(ws, base[1:]))
                             for c in range(dim)))
    return FiniteGround(list(dict.fromkeys(pts))[:8])


@settings(max_examples=100, deadline=None)
@given(witness_grounds())
def test_witness_table_matches_per_point_reference(g):
    assert g._witness_table() == witness_table_reference(g)


def test_witness_table_on_the_n2_construction_ground():
    _, g, _ = build_ground_set(2)
    table = g._witness_table()
    assert g.n == 10 and sum(map(len, table)) == 39
    assert table == witness_table_reference(g)


def caratheodory_closure(g, mask):
    gens = [g.points[j] for j in range(g.n) if mask >> j & 1]
    return mask | sum(1 << x for x in range(g.n)
                      if not mask >> x & 1 and caratheodory_witness(g.points[x], gens) is not None)


def assert_matches_references(g):
    assert g._witness_table() == witness_table_reference(g)
    for mask in range(1 << g.n):
        assert g.closure_mask(mask) == caratheodory_closure(g, mask)


@pytest.mark.parametrize("point", [(), (F(1, 3),), (F(-2), F(5, 7), F(0))])
def test_one_point_ground(point):
    g = FiniteGround([point])
    assert g._witness_table() == [[]]
    assert_matches_references(g)


def test_collinear_ground_in_q3():
    ts = [F(-3), F(-1, 2), F(0), F(1, 3), F(2), F(7, 2)]
    g = FiniteGround([(1 + t, 2 - 3 * t, F(1, 5) + t / 2) for t in ts])
    cols = [[int(c * 60) for c in p] + [1] for p in g.points]     # 60: lcm of the denominators
    for size in (3, 4):
        for subset in itertools.combinations(range(g.n), size):
            _, pivots, _ = rref_int(zip(*(cols[j] for j in subset)))
            assert pivots[:size] != list(range(size))
    table = g._witness_table()
    assert all(bin(w).count("1") == 2 for ws in table for w in ws)
    assert [len(ws) for ws in table] == [0, 4, 6, 6, 4, 0]
    assert_matches_references(g)


def test_ground_in_q1():
    g = FiniteGround([(F(x),) for x in (F(5, 2), F(-3), F(0), F(2), F(-1))])
    assert g.closure_mask(0b00011) == 0b11111
    assert_matches_references(g)


# --- lattice structure -------------------------------------------------------

def test_boolean_lattice_atoms():
    lat = lattices.boolean(3)
    assert len(lat.atoms()) == 3
    assert sorted(lat.labels[a] for a in lat.atoms()) == [1, 2, 4]
    assert len(lat.join_irreducibles()) == 3


def test_collinear_lattice_atoms_are_singletons():
    g = lattices.collinear_ground([0, 1, 2, 3])
    lat = g.lattice()
    atom_masks = {lat.labels[a] for a in lat.atoms()}
    assert atom_masks == {1, 2, 4, 8}


def test_chain_join_irreducibles():
    lat = lattices.chain(4)
    assert lat.join_irreducibles() == [1, 2, 3]


def test_m3_and_n5_shapes():
    m3 = lattices.m3()
    assert len(m3.atoms()) == 3
    n5 = lattices.n5()
    assert len(n5.atoms()) == 2


def test_join_meet_axioms_closed_system():
    rng = random.Random(19)
    g = random_ground(rng, 7)
    lat = g.lattice()
    J, M = lat.join_table, lat.meet_table
    n = lat.n
    assert (J == J.T).all() and (M == M.T).all()
    idx = np.arange(n)
    # absorption
    for a in range(n):
        assert (J[a, M[a]] == a).all()
        assert (M[a, J[a]] == a).all()
    # associativity via gather
    for a in range(0, n, max(1, n // 8)):
        assert (J[J[a, :][:, None], idx[None, :]] == J[a, J]).all()
        assert (M[M[a, :][:, None], idx[None, :]] == M[a, M]).all()


def test_generic_tables_match_mask_tables():
    g = lattices.collinear_ground([0, 1, 2, 3])
    masks = g.enumerate_closed_masks()
    fast = FiniteLattice.from_closed_masks(masks)
    slow = order_lattice(fast.labels, fast.leq)   # forces the generic LUB search
    assert (fast.join_table == slow.join_table).all()
    assert (fast.meet_table == slow.meet_table).all()


def test_from_closed_masks_rejects_masks_beyond_int64():
    # the lattice tables hold masks as int64; a 64-point ground must fail
    # with the resource error, not overflow inside numpy
    with pytest.raises(ResourceLimitError):
        FiniteLattice.from_closed_masks([0, 1 << 63])
    lat = FiniteLattice.from_closed_masks([0, 1 << 62])
    assert lat.n == 2
