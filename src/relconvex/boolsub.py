"""The Boolean lattice of subsets of {0..n}, the lattice of its
top-containing meet-closed families, and their geometric images inside a
simplex.

Subsets are int bitmasks, and a family of subsets is its code, bit t set for
each member t; the code's sorted bits are the family's sorted members.  The
family lattice is enumerated by the NextClosure of ``closure``, under its
bound on closed sets.  A subset t maps to the open face of the simplex on the
complementary vertices, full ^ t (nothing for the full subset), and a family
to the union of its members' faces: a union of open faces is a set of vertex
masks, which ``face_generators`` turns into hull generators.
``verify_claim_join`` certifies pair by pair that such unions over
meet-closed families are convex, by strict hull membership of face
centroids and of rational barycentric samples.  A point of the simplex lies
in the one open face on the support of its barycentric coordinates; the
embedding reads that support off their closed form on the standard simplex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from .closure import next_closure
from .errors import InputError
from .geometry import (
    MixedGenerators,
    VPolytope,
    centroid,
    combination,
    strict_hull_member,
)
from .lattice import FiniteLattice

_SUPPORT_DENOMINATOR = 4      # of the barycentric samples in verify_claim_join


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 1


def subm_lattice(n: int) -> FiniteLattice:
    """The lattice of the meet-closed families of subsets of {0..n} that
    contain the full set, ordered by inclusion, each element labelled by its
    family code.

    These families are the closure systems on n + 1 points.  They are the
    closed sets of the operator that adds the full set to a family and
    closes it under intersection, so NextClosure lists them, and raises
    ResourceLimitError past MAX_ELEMENTS of them (n = 4 has 1,385,552).
    Meet is intersection and join is the closure of the union.
    """
    size = 1 << (n + 1)
    top = 1 << full_mask(n)

    def close(code: int) -> int:
        members = new = {m for m in range(size) if (code | top) >> m & 1}
        while new:      # only meets with a member new in the last round can be new
            new = {a & b for a in new for b in members} - members
            members |= new
        return sum(1 << m for m in members)

    return FiniteLattice.from_closed_masks(next_closure(size, close))


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


def face_generators(simplex: VPolytope, masks: Iterable[int]) -> Optional[MixedGenerators]:
    """Generators of the union of the open faces of the simplex on the given
    vertex masks (a vertex for a one-bit mask), or None for no faces."""
    verts = simplex.vertices
    points = []
    faces = []
    for mask in masks:
        members = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if len(members) == 1:
            points.append(members[0])
        else:
            faces.append(tuple(members))
    if not points and not faces:
        return None
    return MixedGenerators(points=tuple(points), open_faces=tuple(faces))


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
    """Certify hull(F(a) ∪ F(b)) = F(a) ∪ F(b) ∪ F(a∩b), F(t) the open face
    on the complementary vertices full ^ t (empty for the full subset).

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
    gens = face_generators(simplex, {A, B} - {0})

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
