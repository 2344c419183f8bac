import functools
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    all_families_lattice,
    face_support,
    family_code,
    inclusion_order_reference,
    iter_meet_subsemilattices,
    meet_closure,
    phi,
    psi,
)
from relconvex.boolsub import full_mask, subm_lattice, verify_claim_join
from relconvex.errors import InputError, ResourceLimitError
from relconvex.geometry import VPolytope, interpolate, qp, standard_simplex
from relconvex.lattice import FiniteLattice


def contains(pieces, simplex, q) -> bool:
    """q lies in the union of the open faces on the vertex masks ``pieces``."""
    return face_support(q, simplex) in pieces


@functools.cache
def families(n):
    return list(iter_meet_subsemilattices(n))


def test_enumerate_subm_n0():
    # the 2-element chain: every one of its 4 families is meet-closed, and
    # the two with the full set are the closure systems on one point
    assert len(families(0)) == 4
    assert subm_lattice(0).labels == [0b10, 0b11]


def test_enumerate_subm_n1():
    assert len(families(1)) == 14
    assert subm_lattice(1).n == 7


def test_enumerate_subm_n2_matches_bruteforce():
    # frozen golden counts, first derived from the brute-force oracle; the
    # top-containing sub-count 61 agrees with the closure-system count on a
    # 3-element base set
    assert len(families(2)) == 122
    assert sum(1 for f in families(2) if full_mask(2) in f) == 61
    assert subm_lattice(2).n == 61


@pytest.mark.parametrize("n,total", [(0, 4), (1, 14), (2, 122), (3, 4960)])
def test_subm_lattice_matches_the_brute_force_lattice(n, total):
    # NextClosure lists exactly the top-containing families of the filter
    # over all 2^(2^(n+1)) codes: same labels, order and tables
    lat = subm_lattice(n)
    ref = FiniteLattice.from_closed_masks(
        [family_code(f) for f in families(n) if full_mask(n) in f])
    assert lat.labels == ref.labels
    assert (lat.leq == ref.leq).all()
    assert (lat.join_table == ref.join_table).all()
    assert (lat.meet_table == ref.meet_table).all()
    # F -> F minus the full set is a bijection onto the families without it
    assert 2 * lat.n == total == len(families(n))


def test_enumerate_subm_resource_error():
    # n = 4 has 1,385,552 families: the closed-set bound stops NextClosure
    with pytest.raises(ResourceLimitError, match="more than 4096 closed sets"):
        subm_lattice(4)


def test_meet_closure_adds_intersection():
    fam = meet_closure({0b01, 0b10})
    assert fam == frozenset({0b01, 0b10, 0})


def test_subm_lattice_n1():
    lat = all_families_lattice(1)
    assert lat.n == 14
    bot = lat.labels[lat.bottom()]
    top = lat.labels[int(np.flatnonzero(lat.leq.all(axis=0)).item())]
    assert bot == family_code(())
    assert top == family_code(range(4))
    # join of {{0}} and {{1}} must add the empty set
    i = lat.labels.index(family_code({0b01}))
    j = lat.labels.index(family_code({0b10}))
    assert lat.labels[lat.join_table[i, j]] == family_code({0b01, 0b10, 0})
    # meet with the empty family is the empty family
    assert lat.labels[lat.meet_table[i, lat.bottom()]] == family_code(())


def test_subm_lattice_axioms_n1():
    lat = all_families_lattice(1)
    assert (lat.leq == inclusion_order_reference(lat.labels)).all()
    J, M = lat.join_table, lat.meet_table
    for a, b, c in itertools.product(range(lat.n), repeat=3):
        assert J[a, b] == J[b, a]
        assert M[J[a, b], int(J[a, b])] == J[a, b]
        assert J[J[a, b], c] == J[a, J[b, c]]
        assert M[M[a, b], c] == M[a, M[b, c]]
        assert J[a, M[a, b]] == a
        assert M[a, J[a, b]] == a


# --- psi / phi ---------------------------------------------------------------

def test_psi_top_is_empty():
    s = standard_simplex(2)
    assert psi(full_mask(2), s) == frozenset()


def test_psi_singleton_complement_is_vertex():
    s = standard_simplex(2)
    # complement of t is {i}: the piece is the single vertex p_i
    t = full_mask(2) ^ 0b001
    out = psi(t, s)
    assert out == frozenset({0b001})
    assert contains(out, s, s.vertices[0])
    assert not contains(out, s, s.vertices[1])


def test_psi_empty_set_is_whole_interior():
    s = standard_simplex(2)
    out = psi(0, s)
    assert out == frozenset({0b111})
    assert contains(out, s, qp("1/4", "1/4"))
    assert not contains(out, s, qp(0, 0))
    assert face_support(qp("1/4", "1/4"), s) == 0b111
    assert face_support(qp(0, "1/2"), s) == 0b101
    for outside in (qp(-1, 0), qp(1, 1), qp("1/2", "-1/4")):
        assert face_support(outside, s) is None
        assert not contains(out, s, outside)


def test_psi_injective_off_top():
    s = standard_simplex(2)
    full = full_mask(2)
    seen = {}
    for t in range(full + 1):
        if t == full:
            continue
        p = psi(t, s)
        assert p, "nonempty piece expected"
        assert p not in seen.values()
        seen[t] = p


def test_phi_requires_meet_closed():
    s = standard_simplex(2)
    with pytest.raises(InputError):
        phi(frozenset({0b001, 0b010}), s)


def test_phi_empty_and_top_families_are_empty_sets():
    s = standard_simplex(2)
    assert phi(frozenset(), s) == frozenset()
    assert phi(frozenset({full_mask(2)}), s) == frozenset()


def test_psi_injective_off_top_n3():
    s = standard_simplex(3)
    full = full_mask(3)
    pieces = [psi(t, s) for t in range(full)]
    assert all(p for p in pieces)
    assert len(set(pieces)) == full


def test_claim_join_rejects_non_simplex():
    square = VPolytope([qp(0, 0), qp(1, 0), qp(1, 1), qp(0, 1)])
    with pytest.raises(InputError):
        verify_claim_join(0, 1, square)


def test_flat_simplex_rejected_by_psi_phi_and_claim_join():
    # four extreme points of a square in Q^3: n + 1 vertices whose affine
    # span has dimension 2, not 3
    flat = VPolytope([(F(0), F(0), F(1)), (F(1), F(0), F(1)),
                      (F(1), F(1), F(1)), (F(0), F(1), F(1))])
    assert len(flat.vertices) == 4 and flat.dim_affine == 2
    with pytest.raises(InputError, match="affinely independent"):
        psi(0b0001, flat)
    with pytest.raises(InputError, match="affinely independent"):
        phi(frozenset({full_mask(3)}), flat)
    with pytest.raises(InputError, match="affinely independent"):
        verify_claim_join(0, 1, flat)


def test_phi_of_full_family_covers_simplex():
    s = standard_simplex(2)
    fam = frozenset(range(full_mask(2) + 1))
    out = phi(fam, s)
    rng = random.Random(4)
    for _ in range(40):
        w = [F(rng.randint(0, 3)) for _ in range(3)]
        if sum(w) == 0:
            continue
        tot = sum(w)
        q = tuple(sum(wi * v[k] for wi, v in zip(w, s.vertices)) / tot for k in range(2))
        assert contains(out, s, q)
    assert not contains(out, s, qp(2, 2))


def test_phi_preserves_meets_as_piece_sets():
    s = standard_simplex(1)
    fams = list(iter_meet_subsemilattices(1))
    for f0, f1 in itertools.combinations(fams, 2):
        inter = f0 & f1
        assert phi(inter, s) == phi(f0, s) & phi(f1, s)


def test_phi_images_convex_midpoints():
    s = standard_simplex(2)
    rng = random.Random(9)
    fams = list(iter_meet_subsemilattices(2))
    rng.shuffle(fams)
    for fam in fams[:12]:
        out = phi(fam, s)
        pts = []
        for mask in out:
            members = [s.vertices[i] for i in range(3) if mask >> i & 1]
            k = len(members)
            # random positive rational combination stays in the open piece
            weights = [F(rng.randint(1, 5)) for _ in members]
            tot = sum(weights)
            pts.append(tuple(sum(w * m[d] for w, m in zip(weights, members)) / tot
                             for d in range(2)))
        for p1, p2 in itertools.combinations(pts, 2):
            mid = interpolate(p1, p2, F(1, 2))
            assert contains(out, s, mid), (fam, p1, p2)


# --- the join identity ---------------------------------------------------------

def test_phi_images_convex_random_pairs():
    # 100 random point pairs drawn across random family images: the midpoint
    # of two image points always lands back in the image
    s = standard_simplex(2)
    rng = random.Random(42)
    fams = [f for f in iter_meet_subsemilattices(2) if f]
    done = 0
    while done < 100:
        fam = fams[rng.randrange(len(fams))]
        out = phi(fam, s)
        if not out:
            continue

        def sample_point():
            mask = sorted(out)[rng.randrange(len(out))]
            members = [s.vertices[i] for i in range(3) if mask >> i & 1]
            weights = [F(rng.randint(1, 7)) for _ in members]
            tot = sum(weights)
            return tuple(sum(w * m[d] for w, m in zip(weights, members)) / tot
                         for d in range(2))

        p1, p2 = sample_point(), sample_point()
        mid = interpolate(p1, p2, F(1, 2))
        assert contains(out, s, mid), (fam, p1, p2)
        done += 1


def test_claim_join_equal_arguments():
    s = standard_simplex(2)
    for a in range(full_mask(2) + 1):
        ok, _ = verify_claim_join(a, a, s)
        assert ok


def test_claim_join_two_vertices_give_open_edge():
    s = standard_simplex(2)
    a, b = 0b011, 0b101        # complements {2} and {1}
    ok, detail = verify_claim_join(a, b, s)
    assert ok, detail


def test_claim_join_all_pairs_n2():
    s = standard_simplex(2)
    full = full_mask(2)
    for a in range(full + 1):
        for b in range(a, full + 1):
            ok, detail = verify_claim_join(a, b, s)
            assert ok, (a, b, detail)
