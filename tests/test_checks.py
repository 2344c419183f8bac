"""Every lattice check against the loop it replaced, witness for witness.

The triple checks share one first-witness scan, ``d_relation`` tests one
join-irreducible b against all a at a time, and ``find_d_cycle`` keeps its
depth-first path on one stack.  The corpus is seeded point grounds in Q¹ and
Q², seeded random intersection-closed families, and M3, N5, B3 and the
4-chain; every check must return exactly what its reference in
``oracles.py`` returns, and fail on at least 50 lattices of the corpus.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattices
from oracles import (
    biatomic_reference,
    d_relation_reference,
    distributive_reference,
    find_d_cycle_reference,
    jsd_scan_reference,
    weak_atom_reference,
)
from relconvex.analysis import (
    D_CYCLE,
    Witness,
    check_biatomic,
    check_distributive,
    check_jsd,
    check_lower_bounded,
    check_weak_atom_property,
    d_relation,
    find_d_cycle,
)
from relconvex.closure import FiniteGround
from relconvex.lattice import FiniteLattice
from test_jsd import NAMED, intersection_closed_family


def lower_bounded_reference(lat):
    cycle = find_d_cycle_reference(d_relation_reference(lat))
    if cycle is None:
        return True, None
    return False, Witness(D_CYCLE, cycle, {"roles": ["join-irreducible"] * len(cycle)})


CHECKS = {
    "jsd": (check_jsd, jsd_scan_reference),
    "distributive": (check_distributive, distributive_reference),
    "weakatom": (check_weak_atom_property, weak_atom_reference),
    "biatomic": (check_biatomic, biatomic_reference),
    "lb": (check_lower_bounded, lower_bounded_reference),
}


def point_ground(rng):
    dim, size = rng.randint(1, 2), rng.randint(3, 7)
    pts = set()
    while len(pts) < size:
        pts.add(tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
    return FiniteGround(sorted(pts))


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(12)
    grounds = [point_ground(rng).lattice() for _ in range(100)]
    families = [FiniteLattice.from_closed_masks(intersection_closed_family(rng, rng.randint(3, 6)))
                for _ in range(200)]
    return grounds + families + [make() for make in NAMED.values()]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_matches_reference_witness_for_witness(corpus, name):
    check, reference = CHECKS[name]
    failures = 0
    for lat in corpus:
        verdict = check(lat)
        assert verdict == reference(lat)
        failures += not verdict[0]
    assert failures >= 50


def test_d_relation_matches_pair_loop(corpus):
    for lat in corpus:
        assert d_relation(lat) == d_relation_reference(lat)


digraphs = st.integers(1, 8).flatmap(lambda n: st.fixed_dictionaries(
    {v: st.lists(st.integers(0, n - 1), max_size=4) for v in range(n)}))


@settings(max_examples=300, deadline=None)
@given(digraphs)
def test_find_d_cycle_matches_three_colour_search(graph):
    cycle = find_d_cycle(graph)
    assert cycle == find_d_cycle_reference(graph)
    if cycle is not None:
        assert cycle[0] == cycle[-1]
        assert all(b in graph[a] for a, b in zip(cycle, cycle[1:]))
