"""Join and meet tables of FiniteLattice against the two reference builders
in oracles.py: bitmask arithmetic for closure systems, and the unpacked
least-upper-bound search for any order."""

import random

import numpy as np
import pytest

import lattices
from oracles import (
    closed_masks_generic_reference,
    cover_order_reference,
    family_code,
    inclusion_order_reference,
    iter_meet_subsemilattices,
    lub_tables_reference,
    mask_tables_reference,
    order_lattice,
)
from relconvex import lattice as lattice_module
from relconvex.errors import InputError, ResourceLimitError
from relconvex.lattice import FiniteLattice, NotALatticeError
from test_closure import random_ground
from test_jsd import intersection_closed_family


@pytest.fixture(params=["one-block", "row-blocks"])
def blocks(request, monkeypatch):
    """Build tables in one block, or one row per block."""
    if request.param == "row-blocks":
        monkeypatch.setattr(lattice_module, "_BLOCK_BYTES", 1)


def assert_lub_reference(lat: FiniteLattice):
    join, meet = lub_tables_reference(lat.leq)
    assert (lat.join_table == join).all()
    assert (lat.meet_table == meet).all()


def assert_mask_reference(lat: FiniteLattice, masks):
    """``masks[i]`` is the closed set of element i, in any index order."""
    order, join, meet = mask_tables_reference(masks)
    at = np.array([masks.index(m) for m in order])
    assert (lat.join_table[np.ix_(at, at)] == at[join]).all()
    assert (lat.meet_table[np.ix_(at, at)] == at[meet]).all()


def closure_systems():
    rng = random.Random(6)
    for k in range(24):
        g = random_ground(rng, rng.randint(4, 9), dim=1 + k % 3)
        yield f"ground{k}", g.enumerate_closed_masks()
    families = list(iter_meet_subsemilattices(2))
    full = 0b111
    yield "n2-families", [family_code(f) for f in families]
    yield "n2-families-with-top", [family_code(f) for f in families if full in f]


@pytest.mark.parametrize("name,masks", list(closure_systems()))
def test_closure_system_tables_match_both_references(name, masks):
    lat = FiniteLattice.from_closed_masks(masks)
    assert_mask_reference(lat, lat.labels)
    assert_lub_reference(lat)


@pytest.mark.parametrize("seed", range(6))
def test_shuffled_cover_pairs_match_both_references(seed, blocks):
    """Abstract lattices whose index order is not a linear extension."""
    rng = random.Random(seed)
    closed = FiniteLattice.from_closed_masks(
        random_ground(rng, rng.randint(4, 8), dim=1 + seed % 3).enumerate_closed_masks())
    masks = list(closed.labels)
    rng.shuffle(masks)
    lat = lattices.labelled(
        masks, [(closed.labels[i], closed.labels[j]) for i, j in closed.cover_pairs()])
    assert np.tril(lat.leq, -1).any()
    assert_mask_reference(lat, masks)
    assert_lub_reference(lat)


@pytest.mark.parametrize("lat", [lattices.m3(), lattices.n5(), lattices.chain(1),
                                 lattices.chain(6), lattices.boolean(0),
                                 lattices.boolean(4)],
                         ids=["m3", "n5", "chain1", "chain6", "boolean0", "boolean4"])
def test_named_lattices_match_lub_reference(lat):
    assert_lub_reference(lat)


def test_boolean_matches_mask_reference():
    lat = lattices.boolean(5)
    assert_mask_reference(lat, lat.labels)


def random_order(rng, n):
    """Transitive closure of random edges from lower to higher index, under
    a random relabelling."""
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.3
    for _ in range(n):
        leq = leq | ((leq.astype(int) @ leq.astype(int)) > 0)
    perm = np.array(rng.sample(range(n), n))
    return leq[np.ix_(perm, perm)]


def random_covers(rng, n, cyclic=False):
    """Random index pairs, lower to upper in a random linear order, with
    repeats and self-loops; with ``cyclic``, plus a cycle of 2-4 elements."""
    rank = rng.sample(range(n), n)
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i, n) if rng.random() < 0.25]
    pairs += rng.sample(pairs, len(pairs) // 4)
    if cyclic:
        ring = rng.sample(range(n), rng.randint(2, min(n, 4)))
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    rng.shuffle(pairs)
    return pairs


def test_cover_pairs_order_matches_warshall():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 24)
        covers = random_covers(rng, n)
        labels = [f"e{i}" for i in range(n)]
        lat = FiniteLattice.from_cover_pairs(labels, covers)
        assert (lat.leq == cover_order_reference(n, covers)).all()


def test_cover_cycles_are_not_antisymmetric():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(2, 16)
        covers = random_covers(rng, n, cyclic=True)
        leq = cover_order_reference(n, covers)
        assert ((leq & leq.T) & ~np.eye(n, dtype=bool)).any()
        with pytest.raises(InputError, match="order not antisymmetric"):
            FiniteLattice.from_cover_pairs(list(range(n)), covers)


@pytest.mark.parametrize("seed", range(4))
def test_random_orders_fail_with_the_reference_reason(seed, blocks):
    rng = random.Random(seed)
    reasons = set()
    for _ in range(60):
        leq = random_order(rng, rng.randint(1, 9))
        try:
            expected = lub_tables_reference(leq)
        except NotALatticeError as exc:
            with pytest.raises(NotALatticeError) as got:
                order_lattice(range(len(leq)), leq).join_table
            assert str(got.value) == str(exc)
            reasons.add(str(exc))
            continue
        lat = order_lattice(range(len(leq)), leq)
        assert (lat.leq == leq).all()
        assert (lat.join_table == expected[0]).all()
        assert (lat.meet_table == expected[1]).all()
    assert len(reasons) >= 2


def test_lattice_under_inclusion_that_is_no_closure_system():
    # {∅, {0,1}, {0,2}, {0,1,2}} is a lattice under inclusion, but the meet
    # of {0,1} and {0,2} is ∅, not their intersection {0}
    with pytest.raises(NotALatticeError, match="intersection of closed sets not closed"):
        FiniteLattice.from_closed_masks([0, 3, 5, 7])


def test_intersection_closed_families_match_both_references(blocks):
    rng = random.Random(15)
    families = [[0]] + [intersection_closed_family(rng, rng.randint(1, 7)) for _ in range(120)]
    for masks in families:
        lat = FiniteLattice.from_closed_masks(masks)
        order, join, meet = mask_tables_reference(masks)
        assert lat.labels == order
        assert (lat.leq == inclusion_order_reference(order)).all()
        generic = order_lattice(lat.labels, lat.leq)
        for tables in (lat, generic):
            assert (tables.join_table == join).all()
            assert (tables.meet_table == meet).all()


# [0, 3, 5, 7] is pinned by the test above
@pytest.mark.parametrize("masks,reason", [
    ([1, 2], "pair without upper bound"),
    ([0, 1, 2], "pair without upper bound"),
    ([3, 1, 2], "pair without lower bound"),
], ids=str)
def test_invalid_families_keep_their_reason(masks, reason, blocks):
    with pytest.raises(NotALatticeError) as got:
        FiniteLattice.from_closed_masks(masks)
    assert str(got.value) == reason


@pytest.mark.parametrize("seed", range(3))
def test_random_families_fail_with_the_generic_reason(seed, blocks):
    """Random families of subsets, mostly no closure system: the error, or
    the tables, of the generic search checked against intersection."""
    rng = random.Random(seed)
    reasons = set()
    for _ in range(150):
        k = rng.randint(1, 5)
        masks = rng.sample(range(1 << k), rng.randint(1, min(9, 1 << k)))
        try:
            expected = closed_masks_generic_reference(masks)
        except NotALatticeError as exc:
            with pytest.raises(NotALatticeError) as got:
                FiniteLattice.from_closed_masks(masks)
            assert str(got.value) == str(exc)
            reasons.add(str(exc))
            continue
        lat = FiniteLattice.from_closed_masks(masks)
        assert (lat.join_table == expected.join_table).all()
        assert (lat.meet_table == expected.meet_table).all()
    assert "intersection of closed sets not closed" in reasons and len(reasons) >= 4


def test_signed_masks_match_the_generic_search():
    """Negative masks are infinite sets in two's complement; their order by
    (popcount, mask) is no linear extension, so the join search must not
    take it for one."""
    rng = random.Random(15)
    for _ in range(400):
        masks = rng.sample(range(-9, 16), rng.randint(1, 7))
        try:
            expected = closed_masks_generic_reference(masks)
        except NotALatticeError as exc:
            with pytest.raises(NotALatticeError) as got:
                FiniteLattice.from_closed_masks(masks)
            assert str(got.value) == str(exc)
            continue
        lat = FiniteLattice.from_closed_masks(masks)
        assert (lat.leq == inclusion_order_reference(lat.labels)).all()
        assert (lat.join_table == expected.join_table).all()
        assert (lat.meet_table == expected.meet_table).all()


def test_empty_order_is_no_lattice():
    with pytest.raises(NotALatticeError, match="lattice without elements"):
        FiniteLattice.from_closed_masks([])
    with pytest.raises(NotALatticeError, match="lattice without elements"):
        FiniteLattice.from_cover_pairs([], [])


def test_duplicate_labels_rejected():
    with pytest.raises(InputError, match="duplicate element labels"):
        FiniteLattice.from_cover_pairs(["a", "a"], [])
    with pytest.raises(InputError, match="duplicate closed sets"):
        FiniteLattice.from_closed_masks([0, 1, 1])


def test_closed_masks_past_the_element_bound_raise_before_any_table(monkeypatch):
    # every subset of 13 points: a closure system with twice the bound of
    # closed sets, refused as a cover list of that size is, with numpy gone
    # so that no n x n table can be built first
    size = 2 * lattice_module.MAX_ELEMENTS
    monkeypatch.setattr(lattice_module, "np", None)
    with pytest.raises(ResourceLimitError,
                       match=f"^{size} lattice elements exceed {lattice_module.MAX_ELEMENTS}$"):
        FiniteLattice.from_closed_masks(list(range(size)))


def test_no_constructor_takes_an_unchecked_order():
    """An order matrix enters only as cover pairs, which close to a partial
    order or fail; a matrix passed to the class itself is refused."""
    with pytest.raises(TypeError):
        FiniteLattice([0, 1], np.triu(np.ones((2, 2), dtype=bool)))
