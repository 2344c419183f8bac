import itertools
import random
from fractions import Fraction as F

import pytest

import lattices
from relconvex.analysis import (
    ClosureTable,
    LatticeMap,
    check_anti_exchange,
    check_biatomic,
    check_distributive,
    check_jsd,
    check_lower_bounded,
    check_weak_atom_property,
    d_relation,
    find_d_cycle,
    map_defects,
    find_m3,
    verify_embedding,
)
from relconvex.closure import FiniteGround
from relconvex.lattice import FiniteLattice


def brute_jsd(lat):
    J, M = lat.join_table, lat.meet_table
    for x, y, z in itertools.product(range(lat.n), repeat=3):
        if J[x, y] == J[x, z] and J[x, M[y, z]] != J[x, y]:
            return False
    return True


def random_planar_ground(rng, size):
    pts = set()
    while len(pts) < size:
        pts.add((F(rng.randint(-4, 4)), F(rng.randint(-4, 4))))
    return FiniteGround(sorted(pts))


# --- join-semidistributivity -------------------------------------------------

def test_jsd_boolean():
    ok, _ = check_jsd(lattices.boolean(3))
    assert ok


def test_jsd_m3_violation_with_witness():
    lat = lattices.m3()
    ok, w = check_jsd(lat)
    assert not ok
    x, y, z = w.elements
    J, M = lat.join_table, lat.meet_table
    assert J[x, y] == J[x, z]
    assert J[x, M[y, z]] != J[x, y]


def test_jsd_n5_true():
    ok, _ = check_jsd(lattices.n5())
    assert ok
    assert brute_jsd(lattices.n5())


def test_jsd_matches_bruteforce_on_small_lattices():
    rng = random.Random(2)
    for _ in range(8):
        g = random_planar_ground(rng, rng.randint(3, 6))
        lat = g.lattice()
        assert check_jsd(lat)[0] == brute_jsd(lat)


def test_convex_ground_lattices_are_jsd():
    rng = random.Random(31)
    for _ in range(10):
        g = random_planar_ground(rng, rng.randint(3, 7))
        ok, _ = check_jsd(g.lattice())
        assert ok


# --- weak atom property -------------------------------------------------------

def test_weak_atom_boolean():
    assert check_weak_atom_property(lattices.boolean(3))[0]


def test_weak_atom_m3_fails():
    lat = lattices.m3()
    ok, w = check_weak_atom_property(lat)
    assert not ok
    x, y, z = w.elements
    assert lat.join_table[x, y] == lat.join_table[x, z]
    assert y != z
    assert not (lat.leq[y, x] and lat.leq[z, x])


def test_weak_atom_on_closed_set_lattices():
    rng = random.Random(8)
    for _ in range(6):
        g = random_planar_ground(rng, rng.randint(3, 7))
        assert check_weak_atom_property(g.lattice())[0]


# --- anti-exchange -------------------------------------------------------------

def test_anti_exchange_on_point_grounds():
    rng = random.Random(13)
    for _ in range(10):
        g = random_planar_ground(rng, rng.randint(3, 7))
        ok, _ = check_anti_exchange(g)
        assert ok


def test_anti_exchange_collinear():
    ok, _ = check_anti_exchange(lattices.collinear_ground([0, 1, 2, 3]))
    assert ok


def test_anti_exchange_symmetric_table_fails():
    # cl({a}) = cl({b}) = {a,b}: a and b exchange into each other
    table = {0b00: 0b00, 0b01: 0b11, 0b10: 0b11, 0b11: 0b11}
    op = ClosureTable(2, table)
    ok, w = check_anti_exchange(op)
    assert not ok
    A, x, y = w.elements
    assert A == 0
    assert op.closure_mask(A | 1 << y) >> x & 1
    assert op.closure_mask(A | 1 << x) >> y & 1


def test_closure_table_validation():
    with pytest.raises(Exception):
        ClosureTable(2, {0: 1, 1: 1, 2: 2, 3: 3})    # not extensive at mask 0
    with pytest.raises(Exception):
        ClosureTable(2, {0: 0, 1: 1, 2: 3, 3: 2})    # not idempotent / extensive at 3
    with pytest.raises(Exception):
        ClosureTable(2, {0: 3, 1: 1, 2: 2, 3: 3})    # not monotone: cl({}) above cl({x})


# --- D-relation and lower boundedness ------------------------------------------

def test_d_relation_boolean_empty():
    graph = d_relation(lattices.boolean(3))
    assert all(not v for v in graph.values())


def test_d_relation_chain_empty():
    graph = d_relation(lattices.chain(4))
    assert all(not v for v in graph.values())


def test_four_collinear_not_lower_bounded():
    lat = lattices.collinear_ground([0, 1, 2, 3]).lattice()
    ok, w = check_lower_bounded(lat)
    assert not ok
    cycle = w.elements
    assert cycle[0] == cycle[-1]
    graph = d_relation(lat)
    for a, b in zip(cycle, cycle[1:]):
        assert b in graph[a]
    # the cycle lives among the two interior singletons
    masks = {lat.labels[i] for i in cycle}
    assert masks <= {0b0010, 0b0100}


def test_three_collinear_lower_bounded():
    lat = lattices.collinear_ground([0, 1, 2]).lattice()
    assert check_lower_bounded(lat)[0]


def test_d_cycle_agrees_with_bruteforce_path_search():
    def brute_has_cycle(graph):
        nodes = list(graph)
        for start in nodes:
            frontier = {start}
            for _ in range(len(nodes) + 1):
                frontier = {w for v in frontier for w in graph[v]}
                if start in frontier:
                    return True
        return False

    rng = random.Random(5)
    cases = [lattices.collinear_ground([0, 1, 2, 3]).lattice(),
             lattices.boolean(3),
             lattices.chain(5),
             lattices.m3(),
             lattices.n5()]
    for _ in range(6):
        cases.append(random_planar_ground(rng, rng.randint(3, 6)).lattice())
    for lat in cases:
        graph = d_relation(lat)
        assert (find_d_cycle(graph) is None) == (not brute_has_cycle(graph))


# --- biatomicity ---------------------------------------------------------------

def test_biatomic_boolean():
    assert check_biatomic(lattices.boolean(3))[0]


def test_biatomic_collinear_grounds():
    assert check_biatomic(lattices.collinear_ground([0, 1, 2]).lattice())[0]
    assert check_biatomic(lattices.collinear_ground([0, 1, 2, 3]).lattice())[0]


def test_biatomic_violation_witness_revalidates():
    # an atom below the join of two chain tops but below no join of atoms
    # under them: 0 < a < A, 0 < b < B, a∨b = m, c atom with c only under 1
    lat = FiniteLattice.from_cover_pairs(
        ["0", "a", "b", "c", "m", "A", "B", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "m"), ("b", "m"),
         ("a", "A"), ("b", "B"), ("m", "1"), ("A", "1"), ("B", "1"), ("c", "1")])
    ok, w = check_biatomic(lat)
    assert not ok
    x, y, z = w.elements
    assert lat.labels[x] == "c"
    assert lat.leq[x, lat.join_table[y, z]]
    atoms = lat.atoms()
    for yp in atoms:
        for zp in atoms:
            if lat.leq[yp, y] and lat.leq[zp, z]:
                assert not lat.leq[x, lat.join_table[yp, zp]]


# --- M3 detection ---------------------------------------------------------------

def test_find_m3_in_m3():
    w = find_m3(lattices.m3())
    assert w is not None
    bot, a, b, c, top = w.elements
    lat = lattices.m3()
    for u, v in itertools.combinations([a, b, c], 2):
        assert lat.join_table[u, v] == top
        assert lat.meet_table[u, v] == bot


def test_find_m3_absent_in_boolean():
    assert find_m3(lattices.boolean(3)) is None


def test_find_m3_iff_not_jsd_on_corpus():
    rng = random.Random(7)
    corpus = [lattices.m3(), lattices.n5(), lattices.boolean(3),
              lattices.chain(4)]
    for _ in range(6):
        corpus.append(random_planar_ground(rng, rng.randint(3, 6)).lattice())
    for lat in corpus:
        if lat.n > 50:
            continue
        has_m3 = find_m3(lat) is not None
        jsd, _ = check_jsd(lat)
        if has_m3:
            assert not jsd
        if jsd:
            assert not has_m3


# --- embeddings -----------------------------------------------------------------

def test_verify_embedding_identity():
    lat = lattices.boolean(2)
    f = LatticeMap(lat, lat, list(range(lat.n)))
    assert verify_embedding(f)[0]


def test_verify_embedding_constant_fails():
    chain = lattices.chain(2)
    f = LatticeMap(chain, chain, [0, 0])
    ok, w = verify_embedding(f)
    assert not ok
    assert w.info["reason"] == "not-injective"


def test_map_defects_reports_each_property():
    b2 = lattices.boolean(2)
    chain = lattices.chain(4)
    # atoms 1 and 2 collide, and their join 3 lands above their common image
    f = LatticeMap(b2, chain, [0, 1, 1, 2])
    defects = map_defects(f)
    assert defects["not-injective"].elements == [1, 2]
    assert defects["join-not-preserved"].info["reason"] == "join-not-preserved"
    assert defects["meet-not-preserved"].info["reason"] == "meet-not-preserved"
    ok, w = verify_embedding(f)
    assert not ok
    assert w.info["reason"] == "not-injective"


def test_verify_embedding_non_hom_fails():
    b2 = lattices.boolean(2)
    chain = lattices.chain(4)
    # order-embedding of B_2 into a chain cannot preserve joins
    f = LatticeMap(b2, chain, [0, 1, 2, 3])
    ok, w = verify_embedding(f)
    assert not ok


# --- distributivity --------------------------------------------------------------

def test_distributive_boolean():
    assert check_distributive(lattices.boolean(4))[0]


def test_distributive_fails_on_m3_and_n5():
    assert not check_distributive(lattices.m3())[0]
    assert not check_distributive(lattices.n5())[0]
