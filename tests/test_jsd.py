"""Join-semidistributivity by the κ test, against the triple scan it replaces.

``check_jsd`` takes its verdict from the meet-irreducibles and runs the scan
only to name a witness, and ``find_m3`` returns None at once on an SD-join
lattice.  The differential corpus compares both with the scans kept in
``oracles.py``: seeded random intersection-closed families, M3, N5, B3, the
4-chain and the 600-element ``large-lattices`` benchmark templates.  On every
lattice that is not SD-join the witness must be the scan's, triple for triple.
"""

import json
import random
from pathlib import Path

import pytest

import lattices
from oracles import find_m3_reference, jsd_scan_reference
from relconvex import io as rio
from relconvex.analysis import check_jsd, find_m3
from relconvex.closure import FiniteGround
from relconvex.lattice import FiniteLattice, NotALatticeError
from test_cli import NON_LATTICES

TEMPLATES = Path(__file__).resolve().parent.parent / "perfbench" / "large_grounds.json"

NAMED = {
    "m3": lattices.m3,
    "n5": lattices.n5,
    "boolean3": lambda: lattices.boolean(3),
    "chain4": lambda: lattices.chain(4),
}


def intersection_closed_family(rng, k):
    """The full set and k to 2k random subsets of k points, closed under
    pairwise intersection: the closed sets of a closure system."""
    family = {(1 << k) - 1}
    family.update(rng.randrange(1 << k) for _ in range(rng.randint(k, 2 * k)))
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            return sorted(family)
        family |= more


@pytest.fixture(scope="module")
def random_lattices():
    rng = random.Random(0)
    return [FiniteLattice.from_closed_masks(intersection_closed_family(rng, rng.randint(3, 6)))
            for _ in range(300)]


@pytest.fixture(scope="module", params=range(5))
def template_lattice(request):
    with open(TEMPLATES) as fh:
        template = json.load(fh)["templates"][request.param]
    lat = FiniteGround([rio.point_from_json(p) for p in template["points"]]).lattice()
    assert lat.n == template["closed_sets"]
    return lat


def assert_matches_scan(lat):
    verdict = check_jsd(lat)
    assert verdict == jsd_scan_reference(lat)
    return verdict[0]


def test_random_families_match_scan(random_lattices):
    negatives = sum(not assert_matches_scan(lat) for lat in random_lattices)
    assert negatives >= 100


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_lattices_match_scan(name):
    assert assert_matches_scan(NAMED[name]()) == (name != "m3")


def test_large_templates_match_scan(template_lattice):
    assert assert_matches_scan(template_lattice)


def test_find_m3_matches_pair_loop_on_small_lattices(random_lattices):
    for lat in [make() for make in NAMED.values()] + random_lattices:
        assert find_m3(lat) == find_m3_reference(lat)


def test_find_m3_matches_pair_loop_on_large_templates(template_lattice):
    assert find_m3(template_lattice) is find_m3_reference(template_lattice) is None


# the empty order and the cover cycle fail when built, before any check
# (test_lattice.py, test_cli.py)
@pytest.mark.parametrize("name", sorted(set(NON_LATTICES) - {"empty", "cover-cycle"}))
def test_non_lattice_raises_at_the_api(name):
    elements, covers, reason = NON_LATTICES[name]
    lat = FiniteLattice.from_cover_pairs(elements, [(elements[a], elements[b]) for a, b in covers])
    for check in (check_jsd, find_m3):
        with pytest.raises(NotALatticeError) as err:
            check(lat)
        assert str(err.value) == reason
