"""The Boolean lattice of subsets of {0..n}, its meet-subsemilattices, and
their geometric images inside a simplex.

Subsets are int bitmasks; a family of subsets is a frozenset of masks.  The
map ``psi`` sends a subset t to the relative interior of the simplex face
spanned by the complementary vertex set (empty for the full subset, a single
vertex when the complement is a singleton).  ``phi`` takes unions of such
pieces over a meet-closed family; by construction these unions are convex,
which is what ``verify_claim_join`` certifies pair by pair.

Everything geometric reduces to exact barycentric support computations:
inside a simplex every point has unique affine coordinates, so each point
belongs to exactly one open face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import InputError, ResourceLimitError
from .geometry import (
    MixedGenerators,
    Point,
    VPolytope,
    affine_coordinates,
    centroid,
    combination,
    strict_hull_member,
)
from .lattice import FiniteLattice

_SUPPORT_DENOMINATOR = 4      # of the barycentric samples in verify_claim_join


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 1


def is_meet_closed(family: Iterable[int]) -> bool:
    fam = set(family)
    return all(a & b in fam for a, b in itertools.combinations(fam, 2))


def meet_closure(family: Iterable[int]) -> frozenset[int]:
    fam = set(family)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(fam), 2):
            m = a & b
            if m not in fam:
                fam.add(m)
                changed = True
    return frozenset(fam)


def iter_meet_subsemilattices(n: int) -> Iterator[frozenset[int]]:
    """All meet-closed families of subsets of {0..n}, the empty family
    included, in increasing order of the family code."""
    if n > 3:
        raise ResourceLimitError("family iteration supported for n <= 3")
    size = 1 << (n + 1)
    for code in range(1 << size):
        members = [m for m in range(size) if code >> m & 1]
        if is_meet_closed(members):
            yield frozenset(members)


def _family_code(family: frozenset[int]) -> int:
    code = 0
    for m in family:
        code |= 1 << m
    return code


def _code_family(code: int, size: int) -> frozenset[int]:
    return frozenset(m for m in range(size) if code >> m & 1)


def subm_lattice(n: int, families: Optional[Iterable[frozenset[int]]] = None) -> FiniteLattice:
    """The lattice of meet-closed families ordered by inclusion.

    Meet is intersection and join is the meet-closure of the union; the
    families form a closure system over the 2^(n+1) subsets, so the lattice
    is built from family bitcodes.  Pass ``families`` to build the lattice of
    a sub-collection (it must itself be closed under meet and join).  Without
    ``families`` the lattice of all families is built for n <= 2 only: for
    n = 3 its 4960 elements need about 200 MB of tables.
    """
    if families is None:
        if n > 2:
            raise ResourceLimitError("full family lattice limited to n <= 2; "
                                     "pass families")
        families = iter_meet_subsemilattices(n)
    size = 1 << (n + 1)
    codes = sorted(_family_code(f) for f in families)
    lat = FiniteLattice.from_closed_masks(codes)
    return lat.relabel([_code_family(c, size) for c in lat.labels])


# ---------------------------------------------------------------------------
# geometric images


def check_simplex(simplex: VPolytope) -> int:
    """Validate that the polytope is a simplex; returns n (ambient dim)."""
    if simplex.dim_affine != len(simplex.vertices) - 1:
        raise InputError("base polytope must have affinely independent vertices")
    n = simplex.dim_ambient
    if len(simplex.vertices) != n + 1:
        raise InputError("base simplex must have n+1 vertices")
    return n


def face_support(q: Point, simplex: VPolytope) -> Optional[int]:
    """Mask of the positive barycentric coordinates of q (the open face
    holding q), or None when q lies outside the simplex."""
    coords = affine_coordinates(q, simplex.vertices)
    if coords is None or any(c < 0 for c in coords):
        return None
    return sum(1 << i for i, c in enumerate(coords) if c > 0)


@dataclass(frozen=True)
class OpenFaceSet:
    """A union of relative interiors of faces of a fixed simplex.

    ``pieces`` holds vertex-index masks; the piece for mask A is the set of
    points whose barycentric support is exactly A (the open face on A, a
    vertex when |A| = 1).  Distinct pieces are disjoint point sets.
    """

    simplex: VPolytope
    pieces: frozenset[int]

    def contains(self, q: Point) -> bool:
        support = face_support(q, self.simplex)
        return support is not None and support in self.pieces

    def as_generators(self) -> Optional[MixedGenerators]:
        verts = self.simplex.vertices
        points = []
        faces = []
        for mask in self.pieces:
            members = [verts[i] for i in range(len(verts)) if mask >> i & 1]
            if len(members) == 1:
                points.append(members[0])
            else:
                faces.append(tuple(members))
        if not points and not faces:
            return None
        return MixedGenerators(points=tuple(points), open_faces=tuple(faces))


def psi(t: int, simplex: VPolytope) -> OpenFaceSet:
    """Image of a single subset: the open face on the complementary vertices
    (empty for the full subset)."""
    n = check_simplex(simplex)
    full = full_mask(n)
    if t & ~full:
        raise InputError("subset outside the base set")
    comp = full ^ t
    pieces = frozenset() if comp == 0 else frozenset({comp})
    return OpenFaceSet(simplex, pieces)


def phi(family: frozenset[int], simplex: VPolytope) -> OpenFaceSet:
    """Union of psi over a meet-closed family."""
    n = check_simplex(simplex)
    if not is_meet_closed(family):
        raise InputError("family is not closed under intersection")
    full = full_mask(n)
    pieces = frozenset(full ^ t for t in family if t != full)
    return OpenFaceSet(simplex, pieces)


# ---------------------------------------------------------------------------
# the join identity


def _support_samples(support: int, n: int) -> list[tuple[Fraction, ...]]:
    """Barycentric vectors with support exactly the given mask and all
    coordinates of denominator at most _SUPPORT_DENOMINATOR."""
    idx = [i for i in range(n + 1) if support >> i & 1]
    m = len(idx)
    out = set()
    for d in range(m, _SUPPORT_DENOMINATOR + 1):
        for cut in itertools.combinations(range(1, d), m - 1):
            parts = []
            prev = 0
            for c in list(cut) + [d]:
                parts.append(c - prev)
                prev = c
            vec = [Fraction(0)] * (n + 1)
            for i, p in zip(idx, parts):
                vec[i] = Fraction(p, d)
            out.add(tuple(vec))
    return sorted(out)


def verify_claim_join(a: int, b: int, simplex: VPolytope) -> tuple[bool, dict]:
    """Certify hull(psi(a) ∪ psi(b)) = psi(a) ∪ psi(b) ∪ psi(a∩b).

    Containment of the hull in the three pieces is checked at the piece
    level: for every face of the simplex, the face centroid must be in the
    hull exactly when the face is one of the three pieces.  The reverse
    inclusion is certified by the explicit two-point convex combination,
    evaluated at every rational barycentric sample of denominator <= 4 with
    support on the union piece.
    """
    n = check_simplex(simplex)
    full = full_mask(n)
    A, B = full ^ a, full ^ b
    allowed = {m for m in (A, B, A | B) if m}
    verts = simplex.vertices
    union_set = OpenFaceSet(simplex, frozenset(m for m in (A, B) if m))
    gens = union_set.as_generators()

    detail: dict = {"piece_mismatch": None, "sample_failure": None}
    for C in range(1, full + 1):
        members = [verts[i] for i in range(n + 1) if C >> i & 1]
        point = centroid(members)
        expected = C in allowed
        actual = False if gens is None else strict_hull_member(point, gens)
        if actual != expected:
            detail["piece_mismatch"] = {"piece": C, "expected": expected, "actual": actual}
            return False, detail

    if A and B:
        both = A | B
        for coords in _support_samples(both, n):
            only_a = sum((coords[k] for k in range(n + 1)
                          if A >> k & 1 and not B >> k & 1), Fraction(0))
            shared = sum((coords[k] for k in range(n + 1)
                          if A >> k & 1 and B >> k & 1), Fraction(0))
            lam = only_a + shared / 2
            if not 0 < lam < 1:
                detail["sample_failure"] = {"coords": [str(c) for c in coords],
                                            "reason": "degenerate-lambda"}
                return False, detail
            x = [Fraction(0)] * (n + 1)
            y = [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                if not coords[k]:
                    continue
                in_a = bool(A >> k & 1)
                in_b = bool(B >> k & 1)
                if in_a and in_b:
                    x[k] = coords[k] / (2 * lam)
                    y[k] = coords[k] / (2 * (1 - lam))
                elif in_a:
                    x[k] = coords[k] / lam
                elif in_b:
                    y[k] = coords[k] / (1 - lam)
            ok = (sum(x) == 1 and sum(y) == 1
                  and all((x[k] > 0) == bool(A >> k & 1) for k in range(n + 1))
                  and all((y[k] > 0) == bool(B >> k & 1) for k in range(n + 1)))
            if ok:
                z = tuple(lam * xv + (1 - lam) * yv for xv, yv in zip(x, y))
                ok = z == coords
            if ok:
                point = combination(coords, verts)
                ok = strict_hull_member(point, gens)
            if not ok:
                detail["sample_failure"] = {"coords": [str(c) for c in coords]}
                return False, detail
    return True, detail
