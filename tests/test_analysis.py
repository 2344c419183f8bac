import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import lattices
from oracles import anti_exchange_reference, map_defects_reference
from relconvex.analysis import (
    Witness,
    check_anti_exchange,
    check_biatomic,
    check_distributive,
    check_jsd,
    check_lower_bounded,
    check_m3,
    check_weak_atom_property,
    d_relation,
    find_d_cycle,
    map_defects,
)
from relconvex.closure import ClosureTable, FiniteGround, next_closure
from relconvex.geometry import hull_member
from relconvex.io import closure_table_from_json, ground_from_json
from relconvex.lattice import FiniteLattice
from test_closure import random_ground


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


def random_closure_table(rng, n):
    """The closure operator of a random intersection-closed family on n
    points that contains the full set: cl(S) is the meet of its members
    above S."""
    full = (1 << n) - 1
    family = {full} | {rng.randrange(full + 1) for _ in range(rng.randint(0, 1 << n))}
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    table = {}
    for mask in range(full + 1):
        table[mask] = full
        for c in family:
            if c & mask == mask:
                table[mask] &= c
    return ClosureTable(n, table)


def assert_anti_exchange_matches_oracle(operator, closed=None):
    ok, w = check_anti_exchange(operator, closed)
    ref_ok, ref_w = anti_exchange_reference(operator, closed)
    assert ok == ref_ok
    assert (w and w.to_json()) == (ref_w and ref_w.to_json())
    return ok


def test_anti_exchange_matches_the_pair_scan_on_random_tables():
    rng = random.Random(19)
    violations = 0
    for _ in range(3000):
        violations += not assert_anti_exchange_matches_oracle(
            random_closure_table(rng, rng.randint(1, 5)))
    assert 0 < violations < 3000


def test_anti_exchange_matches_the_pair_scan_on_six_point_tables():
    """The one-point-extension verdict, and the witness scan behind it, on
    tables with and without a closed empty set."""
    rng = random.Random(24)
    seen = set()
    for _ in range(400):
        t = random_closure_table(rng, 6)
        ok = assert_anti_exchange_matches_oracle(t)
        seen.add((ok, t.closure_mask(0) != 0))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_anti_exchange_matches_the_pair_scan_on_given_closed_sets():
    """The CLI's route: the closed sets enumerated first, then passed."""
    rng = random.Random(25)
    for _ in range(300):
        t = random_closure_table(rng, rng.randint(0, 6))
        assert_anti_exchange_matches_oracle(t, t.enumerate_closed_masks())
    for _ in range(60):
        g = random_ground(rng, rng.randint(1, 8), dim=rng.choice([1, 2, 3]))
        assert assert_anti_exchange_matches_oracle(g, g.enumerate_closed_masks(max_ground=8))


def test_next_closure_matches_the_table_scan_on_random_tables():
    rng = random.Random(23)
    nonempty_bottom = 0
    for _ in range(1000):
        t = random_closure_table(rng, rng.randint(0, 6))
        nonempty_bottom += t.closure_mask(0) != 0
        assert sorted(next_closure(t.n, t.closure_mask)) == t.enumerate_closed_masks()
    assert 0 < nonempty_bottom < 1000


def test_anti_exchange_matches_the_pair_scan_on_grounds_and_fixtures():
    rng = random.Random(20)
    for _ in range(200):
        assert assert_anti_exchange_matches_oracle(random_planar_ground(rng, rng.randint(3, 7)))
    for dim in (1, 3):
        for _ in range(60):
            g = random_ground(rng, rng.randint(1, 7), dim=dim)
            assert assert_anti_exchange_matches_oracle(g)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    table = closure_table_from_json(json.loads((fixtures / "exchange_table.json").read_text()))
    assert not assert_anti_exchange_matches_oracle(table)
    for name in ("collinear4", "unit_square"):
        ground = ground_from_json(json.loads((fixtures / f"{name}.json").read_text()))
        assert assert_anti_exchange_matches_oracle(ground)


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
    ok, w = check_m3(lattices.m3())
    assert not ok and w is not None
    bot, a, b, c, top = w.elements
    lat = lattices.m3()
    for u, v in itertools.combinations([a, b, c], 2):
        assert lat.join_table[u, v] == top
        assert lat.meet_table[u, v] == bot


def test_find_m3_absent_in_boolean():
    assert check_m3(lattices.boolean(3)) == (True, None)


def test_find_m3_iff_not_jsd_on_corpus():
    rng = random.Random(7)
    corpus = [lattices.m3(), lattices.n5(), lattices.boolean(3),
              lattices.chain(4)]
    for _ in range(6):
        corpus.append(random_planar_ground(rng, rng.randint(3, 6)).lattice())
    for lat in corpus:
        if lat.n > 50:
            continue
        has_m3 = not check_m3(lat)[0]
        jsd, _ = check_jsd(lat)
        if has_m3:
            assert not jsd
        if jsd:
            assert not has_m3


# --- embeddings -----------------------------------------------------------------

MAP_KEYS = ["image-not-closed", "not-injective", "join-not-preserved", "meet-not-preserved"]


def chain_closure(k: int) -> ClosureTable:
    """k + 1 closed sets 0, 1, 3, ..., 2**k - 1 on k points: a chain."""
    return ClosureTable(k, {m: (1 << m.bit_length()) - 1 for m in range(1 << k)})


def agrees_with_oracle(source, closure, image):
    """map_defects on masks, checked against the table oracle on the
    enumerated target; returns its defects."""
    got = map_defects(source, closure, image)
    assert list(got) == MAP_KEYS
    open_at = [i for i, m in enumerate(image) if closure.closure_mask(m) != m]
    if open_at:
        i = open_at[0]
        assert got["image-not-closed"] == Witness(
            "embedding-defect", [i], {"reason": "image-not-closed", "mask": image[i]})
    else:
        assert got["image-not-closed"] is None
    if got["join-not-preserved"] is not None:
        a, j = got["join-not-preserved"].elements
        assert j in source.join_irreducibles()
        assert image[source.join_table[a, j]] != closure.closure_mask(image[a] | image[j])
    if not open_at:
        target = FiniteLattice.from_closed_masks(closure.enumerate_closed_masks())
        index = {m: i for i, m in enumerate(target.labels)}
        want = map_defects_reference(source, target, [index[m] for m in image])
        for key in want:
            assert (got[key] is None) == (want[key] is None), key
        assert got["not-injective"] == want["not-injective"]
        assert got["meet-not-preserved"] == want["meet-not-preserved"]
    return got


def mutations(rng, closure, image):
    """The image with two entries swapped, with two elements collapsed, and
    with one entry replaced by a mask that is not closed, if there is one."""
    a, b = rng.sample(range(len(image)), 2)
    swapped, collapsed, opened = list(image), list(image), list(image)
    swapped[a], swapped[b] = image[b], image[a]
    collapsed[b] = image[a]
    out = [swapped, collapsed]
    not_closed = [m for m in range(1 << closure.n) if closure.closure_mask(m) != m]
    if not_closed:
        opened[a] = rng.choice(not_closed)
        out.append(opened)
    return out


def test_verify_embedding_identity():
    lat = lattices.boolean(2)
    assert not any(agrees_with_oracle(lat, ClosureTable(2, {m: m for m in range(4)}),
                                      lat.labels).values())


def test_verify_embedding_constant_fails():
    defects = agrees_with_oracle(lattices.chain(2), chain_closure(1), [0, 0])
    assert defects["not-injective"].elements == [0, 1]
    assert next(filter(None, defects.values())).info["reason"] == "not-injective"


def test_map_defects_reports_each_property():
    # atoms 1 and 2 collide, and their join 3 lands above their common image
    defects = agrees_with_oracle(lattices.boolean(2), chain_closure(3), [0, 1, 1, 3])
    assert defects["image-not-closed"] is None
    assert defects["not-injective"].elements == [1, 2]
    assert defects["join-not-preserved"].info["reason"] == "join-not-preserved"
    assert defects["meet-not-preserved"].info["reason"] == "meet-not-preserved"
    defects = agrees_with_oracle(lattices.boolean(2), chain_closure(3), [0, 1, 2, 3])
    assert defects["image-not-closed"].elements == [2]
    assert defects["image-not-closed"].info == {"reason": "image-not-closed", "mask": 2}


def test_verify_embedding_non_hom_fails():
    # order-embedding of B_2 into a chain cannot preserve joins
    defects = agrees_with_oracle(lattices.boolean(2), chain_closure(3), [0, 1, 3, 7])
    assert defects["join-not-preserved"].elements == [1, 2]
    assert defects["not-injective"] is None
    assert defects["meet-not-preserved"].elements == [1, 2]


def test_map_defects_match_the_oracle_on_abstract_maps():
    rng = random.Random(16)
    closures = [chain_closure(3), ClosureTable(4, {m: m for m in range(16)})]
    for source in (lattices.boolean(2), lattices.boolean(3), lattices.m3(), lattices.n5(),
                   lattices.chain(4)):
        for closure in closures:
            closed = closure.enumerate_closed_masks()
            for _ in range(20):
                image = [rng.choice(closed) for _ in range(source.n)]
                agrees_with_oracle(source, closure, image)
                for mutated in mutations(rng, closure, image):
                    agrees_with_oracle(source, closure, mutated)


def test_map_defects_match_the_oracle_on_face_traces():
    """Trace maps A -> A ∩ F from point grounds in a triangle onto the
    points of an edge or of a chord, as face_hom_check builds them."""
    tri = [(F(0), F(0)), (F(4), F(0)), (F(0), F(4))]
    rng = random.Random(8)
    outcomes = []
    for trial in range(120):
        pts, size = set(rng.sample(tri, 2)), rng.randint(4, 6)
        while len(pts) < size:
            w = [F(rng.randint(0, 3)) for _ in range(3)]
            tot = sum(w) or F(1)
            pts.add(tuple(sum(wi * v[k] for wi, v in zip(w, tri)) / tot for k in range(2)))
        pts = sorted(pts)
        face = rng.sample(tri, 2) if trial % 2 else rng.sample(pts, 2)
        on_face = [i for i, p in enumerate(pts) if hull_member(p, face)]
        lat = FiniteGround(pts).lattice()
        gf = FiniteGround([pts[i] for i in on_face])
        image = [sum(1 << new for new, old in enumerate(on_face) if mask >> old & 1)
                 for mask in lat.labels]
        defects = agrees_with_oracle(lat, gf, image)
        outcomes.append([w is None for w in defects.values()])
        for mutated in mutations(rng, gf, image):
            agrees_with_oracle(lat, gf, mutated)
    # a trace of a closed set is closed; on an edge the trace map is a
    # homomorphism, and on some chords it breaks joins
    closed, _, joins, meets = map(list, zip(*outcomes))
    assert all(closed) and all(joins[1::2]) and all(meets[1::2])
    assert not all(joins[::2])


# --- distributivity --------------------------------------------------------------

def test_distributive_boolean():
    assert check_distributive(lattices.boolean(4))[0]


def test_distributive_fails_on_m3_and_n5():
    assert not check_distributive(lattices.m3())[0]
    assert not check_distributive(lattices.n5())[0]
