"""Shrinking-simplex construction of a finite ground set whose lattice of
relatively convex subsets hosts the lattice of top-containing meet-closed
families of a Boolean lattice.

The construction places, inside the standard simplex on n+1 vertices, one
shrunken copy P_A of every face simplex S_A (homothety about the face
barycenter).  The shrink amounts form a schedule: level k applies to faces
on n+1-k vertices, the amount strictly decreases with k, and each amount is
found by a deterministic halving search so that exact containment
certificates hold at every level.  The ground set X consists of the center
of the base simplex plus the vertices of all proper-face copies.

The lemma certificates (the slab argument, the nesting of corner polytopes,
both conditions of the schedule search: the strict two-face containment and
the corner containment of each next-level copy) are checked exactly at the
constructed parameters and reported tuple by tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .analysis import Witness, check_lower_bounded, map_defects
from .boolsub import face_generators, full_mask, subm_lattice
from .closure import FiniteGround
from .errors import ConstructionError, InputError, ResourceLimitError
from .geometry import (
    MixedGenerators,
    Point,
    VPolytope,
    centroid,
    hull_member,
    integer_columns,
    interpolate,
    standard_simplex,
    strict_hull_member,
)
from .lattice import FiniteLattice
from .linalg import span_coordinates

EPSILON_SEARCH_BUDGET = 64


def _shrink_labeled(points: dict[int, Point], amount: Fraction) -> dict[int, Point]:
    """Shrink by amount (ratio 1 - amount), keeping the vertex labels."""
    b = centroid(list(points.values()))
    ratio = 1 - amount
    return {i: interpolate(b, p, ratio) for i, p in points.items()}


@dataclass
class Construction:
    """Base simplex, shrink schedule, and every labeled shrunken copy."""

    n: int
    base: VPolytope
    amounts: list[Fraction]           # amounts[k] for faces on n+1-k vertices
    center: Point
    copies: dict[frozenset, dict[int, Point]] = field(default_factory=dict)


def p_point(base: VPolytope, i: int, A: frozenset, j: int, ratio: Fraction) -> Point:
    """Unique intersection of the edge [p_i, p_j] with the affine hull of the
    shrunken vertices of A minus j.  Lies strictly between p_i and p_j.

    Shrinking the face on A by ratio about its barycenter gives every
    shrunken vertex other than p_j the barycentric coordinate
    (1 - ratio)/|A| at p_j, so their affine hull is the level set of that
    coordinate, and the edge meets it at p_i + tau (p_j - p_i) with
    tau = (1 - ratio)/|A|, which lies in (0, 1/2).  This needs the vertices
    of A to be affinely independent, as the vertices of a simplex are.
    """
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise InputError("p-point requires a ratio strictly inside (0, 1)")
    if i == j or i not in A or j not in A or len(A) < 2:
        raise InputError("p-point needs distinct i, j inside A with |A| >= 2")
    return interpolate(base.vertices[i], base.vertices[j], (1 - ratio) / len(A))


def t_polytope(base: VPolytope, A: frozenset, ratio: Fraction, j: int) -> VPolytope:
    """The prism between the face of A minus j and its shrunken parallel copy:
    the hull of the face vertices and their edge intersection points."""
    verts = []
    for i in sorted(set(A) - {j}):
        verts.append(base.vertices[i])
        verts.append(p_point(base, i, frozenset(A), j, ratio))
    return VPolytope(verts)


def u_polytope(base: VPolytope, A: frozenset, ratio: Fraction, i: int) -> VPolytope:
    """The corner polytope at vertex i: the hull of p_i and its edge
    intersection points toward the other members of A."""
    verts = [base.vertices[i]]
    for j in sorted(set(A) - {i}):
        verts.append(p_point(base, i, frozenset(A), j, ratio))
    return VPolytope(verts)


# ---------------------------------------------------------------------------
# epsilon search


def _sets_of_size(n: int, size: int) -> list[frozenset]:
    return [frozenset(c) for c in itertools.combinations(range(n + 1), size)]


def epsilon_search(amount: Fraction, n: int, k: int) -> Fraction:
    """Next-level shrink amount for the schedule on the standard n-simplex.

    Starting at amount/2 and halving, accept the first candidate eps such
    that, for every A on n+1-k vertices and every i in A, each shrunken
    vertex of the face copy S_{A-i}^eps lies inside the corner polytope
    U(A, amount, m) of its label m (staying clear of the excluded corner
    points), and the strict two-face containment of the level transition
    holds.  Both conditions are monotone in eps, so any smaller eps works
    as well.
    """
    amount = Fraction(amount)
    size = n + 1 - k
    if size < 2:
        raise InputError("no schedule level below segments")
    base = standard_simplex(n)
    candidate = amount / 2
    for _ in range(EPSILON_SEARCH_BUDGET):
        if _eps_ok(base, n, size, amount, candidate):
            return candidate
        candidate /= 2
    raise ConstructionError("epsilon search exhausted its halving budget")


def _eps_ok(base: VPolytope, n: int, size: int, amount: Fraction, eps: Fraction) -> bool:
    verts = base.vertices
    ratio = 1 - amount
    for A in _sets_of_size(n, size):
        u_polys = {m: u_polytope(base, A, ratio, m) for m in A}
        excluded = {m: {p_point(base, m, A, j, ratio) for j in A - {m}} for m in A}
        copies = {i: _shrink_labeled({m: verts[m] for m in A - {i}}, eps) for i in A}
        if not all(_in_corners(copies[i], u_polys, excluded) for i in A):
            return False
        if size >= 3:
            big = _shrink_labeled({i: verts[i] for i in A}, amount)
            if not all(_nested(big, copies[i], copies[j])
                       for i, j in itertools.combinations(sorted(A), 2)):
                return False
    return True


def _nested(copy: dict[int, Point], ci: dict[int, Point], cj: dict[int, Point]) -> bool:
    """Every vertex of the copy lies in the relative interior of the hull of
    the two next-level copies ci and cj."""
    gens = MixedGenerators(open_faces=(tuple(ci.values()) + tuple(cj.values()),))
    return all(strict_hull_member(w, gens) for w in copy.values())


def _in_corners(copy: dict[int, Point], corners: dict[int, VPolytope],
                excluded: dict[int, set]) -> bool:
    """Every vertex of the copy lies in the corner polytope of its label m
    and is none of the excluded corner points of m."""
    return all(q not in excluded[m] and hull_member(q, corners[m].vertices)
               for m, q in copy.items())


# ---------------------------------------------------------------------------
# construction and lemma certificates


def build_construction(n: int) -> Construction:
    """Schedule plus all shrunken face copies, stored by size and then in
    combination order.

    The first amount is 1/2; each following level comes from the epsilon
    search; single vertices stay unshrunk (amount 0).
    """
    if n < 1:
        raise InputError("construction requires n >= 1")
    base = standard_simplex(n)
    sched: list[Fraction] = [Fraction(1, 2)]
    for k in range(n - 1):
        sched.append(epsilon_search(sched[k], n, k))
    sched.append(Fraction(0))
    verts = base.vertices
    ctor = Construction(n=n, base=base, amounts=sched, center=centroid(verts))
    for size in range(1, n + 2):
        for A in _sets_of_size(n, size):
            ctor.copies[A] = _shrink_labeled({i: verts[i] for i in A}, sched[n + 1 - size])
    return ctor


@dataclass
class LemmaCheck:
    name: str
    context: tuple
    ok: bool


@dataclass
class LemmaReport:
    checks: list[LemmaCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, context: tuple, ok: bool):
        self.checks.append(LemmaCheck(name, context, bool(ok)))

    def summary(self) -> dict:
        out: dict[str, dict] = {}
        for c in self.checks:
            entry = out.setdefault(c.name, {"checked": 0, "failed": 0})
            entry["checked"] += 1
            entry["failed"] += not c.ok
        return out


def _barycentric(q: Point) -> Point:
    """Barycentric coordinates of q on standard_simplex(n), one per vertex:
    (1 - sum(q), q_1, ..., q_n)."""
    return (1 - sum(q),) + q


def _corner_samples(u: VPolytope, excluded: set) -> list[Point]:
    """The vertices of the corner polytope u other than the excluded points,
    then the midpoint of each edge of u."""
    cands = [v for v in u.vertices if v not in excluded]
    for fc in u.faces():
        if len(fc.indices) == 2:
            a, b = fc.vertices
            cands.append(interpolate(a, b, Fraction(1, 2)))
    return cands


def verify_lemmas(ctor: Construction) -> LemmaReport:
    """Exact certificates for the structural facts the embedding rests on.

    slab(A, j): the corner prism T(A, j) lies between the face hyperplane
        and the parallel shrunken hyperplane, so its overlap with the
        shrunken copy P_A is contained in the shrunken-side face.  Both
        hyperplanes are levels of lambda_j on the standard simplex ctor.base.
    corner-in-prisms(A, i): U(A, i) sits inside every T(A, j), j != i.
    prism-face-pinch(A, i, j): U(A, i) meets the shrunken-side face of
        T(A, j) exactly in the corner point p(i, A, j).
    interior-span(A): for sampled corner choices q_i (vertex or edge
        midpoints of U(A, i), excluded points removed), the shrunken copy
        P_A is strictly inside the relative interior of their hull.  One
        elimination per tuple decides every vertex of P_A.  Each tuple is
        affinely independent: every point q_i of U(A, i) has
        lambda_i(q_i) >= 1 - amount/|A| > 1/2 and is zero outside A, so the
        tuple's lambda matrix on A is column-diagonally dominant.
    level-nesting(A, i, j): the copies of A - i and A - j are their
        schedule shrinks, and the two conditions of the schedule search that
        tie level k to level k+1 hold: each vertex of both copies lies in
        U(A, m) of its label m and is none of the excluded corner points
        p(m, A, .), and the strict two-face containment.
    corner-monotone(A, B, i): U(A, i) inside U(B, i) for A inside B.
    """
    rep = LemmaReport()
    n = ctor.n
    base = ctor.base
    verts = base.vertices
    if verts != standard_simplex(n).vertices:
        raise InputError("lemma certificates need the standard simplex as base")
    subsets = [frozenset(s) for size in range(1, n + 2)
               for s in itertools.combinations(range(n + 1), size)]
    corners = {(A, i): u_polytope(base, A, 1 - ctor.amounts[n + 1 - len(A)], i)
               for A in subsets for i in sorted(A)}
    for A in subsets[n + 1:]:       # |A| >= 2: the n + 1 singletons come first
        ratio = 1 - ctor.amounts[n + 1 - len(A)]
        copy = ctor.copies[A]
        p_pts = {(i, j): p_point(base, i, A, j, ratio)
                 for j in A for i in A - {j}}
        t_polys = {j: t_polytope(base, A, ratio, j) for j in A}

        for j in sorted(A):
            others = A - {j}
            hs = {_barycentric(p_pts[(i, j)])[j] for i in others}
            h = next(iter(hs))
            ok = (len(hs) == 1 and 0 < h < 1
                  and all(_barycentric(copy[k])[j] == h for k in others)
                  and _barycentric(copy[j])[j] > h
                  and all(_barycentric(verts[i])[j] == 0 for i in others))
            rep.add("slab", (tuple(sorted(A)), j), ok)

        for i in sorted(A):
            ok = all(hull_member(w, t_polys[j].vertices)
                     for j in A - {i} for w in corners[A, i].vertices)
            rep.add("corner-in-prisms", (tuple(sorted(A)), i), ok)

        for i in sorted(A):
            for j in sorted(A - {i}):
                sprime = [p_pts[(m, j)] for m in sorted(A - {j})]
                t_verts = t_polys[j].vertices
                if any(p not in t_verts for p in sprime):
                    rep.add("prism-face-pinch", (tuple(sorted(A)), i, j), False)
                    continue
                face_idx = frozenset(t_verts.index(p) for p in sprime)
                is_face = any(fc.indices == face_idx for fc in t_polys[j].faces())
                hits = [w for w in corners[A, i].vertices if hull_member(w, sprime)]
                ok = is_face and hits == [p_pts[(i, j)]]
                rep.add("prism-face-pinch", (tuple(sorted(A)), i, j), ok)

        excluded = {i: {p_pts[(i, j)] for j in A - {i}} for i in A}
        choices = [_corner_samples(corners[A, i], excluded[i]) for i in sorted(A)]
        ws = list(copy.values())
        pts = [*itertools.chain(*choices), *ws]
        cols = dict(zip(pts, integer_columns(pts)))
        ok = True
        for qs in itertools.product(*choices):
            # w is in relint hull(qs) iff its coordinates over qs are all > 0
            coords = span_coordinates([cols[q] for q in qs], [cols[w] for w in ws])
            assert coords is not None, "corner tuple is affinely dependent"
            if not all(c is not None and min(c) > 0 for c in coords):
                ok = False
                break
        rep.add("interior-span", (tuple(sorted(A)),), ok)

        if len(A) >= 3:
            next_amount = ctor.amounts[n + 2 - len(A)]
            corners_A = {m: corners[A, m] for m in A}
            faces = {i: ctor.copies[A - {i}] for i in A}
            # each copy of A - i is its schedule shrink and fits the corners
            fits = {i: faces[i] == _shrink_labeled({m: verts[m] for m in A - {i}}, next_amount)
                    and _in_corners(faces[i], corners_A, excluded) for i in A}
            for i, j in itertools.combinations(sorted(A), 2):
                ok = fits[i] and fits[j] and _nested(copy, faces[i], faces[j])
                rep.add("level-nesting", (tuple(sorted(A)), i, j), ok)

    for A, B in itertools.product(subsets, repeat=2):
        if A < B:
            for i in sorted(A):
                ok = all(hull_member(w, corners[B, i].vertices) for w in corners[A, i].vertices)
                rep.add("corner-monotone", (tuple(sorted(A)), tuple(sorted(B)), i), ok)
    return rep


# ---------------------------------------------------------------------------
# ground set and the verified embedding


def build_ground_set(n: int):
    """The center plus the vertices of every proper-face copy.

    Returns (construction, ground, labels); labels[i] is "v" for the center
    or (vertex_index, sorted_tuple_of_A).
    """
    if n > 3:       # n < 1 is an InputError of build_construction
        raise ResourceLimitError("ground-set construction supported for n in {1, 2, 3}")
    ctor = build_construction(n)
    pts: list[Point] = [ctor.center]
    labels: list = ["v"]
    for A, copy in ctor.copies.items():
        if len(A) <= n:     # proper faces only
            for i in sorted(A):
                pts.append(copy[i])
                labels.append((i, tuple(sorted(A))))
    if len(set(pts)) != len(pts):
        raise ConstructionError("ground points collide")
    return ctor, FiniteGround(pts), labels


@dataclass
class EmbeddingWitness:
    construction: Construction
    ground: FiniteGround
    labels: list
    source: FiniteLattice
    target: FiniteLattice
    image: list[int]                  # closed-set mask of each source element
    report: dict
    defect: Optional[Witness] = None

    @property
    def verified(self) -> bool:
        """Every certificate holds, the map is an embedding with closed
        images, and the target is lower bounded too, which holds for n = 1
        only (hence exit 3 from `embed --n 2`)."""
        return (self.report["lemmas_ok"] and self.report["piece_audit_ok"]
                and self.report["embedding_verified"] and self.report["lower_bounded"])


def build_embedding(n: int) -> EmbeddingWitness:
    """Construct X, map every top-containing meet-closed family S to the
    trace of its face-interior union on X, and machine-verify that the map
    is a lattice embedding of a lower bounded lattice (the source, as the
    theorem requires) into Co(Q^n, X).  The target is lower bounded for
    n = 1 only: for n = 2 each base edge carries four collinear ground
    points, whose d-cycle the report's defect names.

    The family lattice is restricted to families containing the full set:
    the face-interior image of the full set is empty, so families differing
    only there have equal traces and the unrestricted map cannot be
    injective.  The report records both family counts.

    The target lattice is enumerated under the bound on closed sets, so
    n = 3, whose 29-point ground has more than MAX_ELEMENTS of them, raises
    ResourceLimitError; build_ground_set refuses n >= 4 at once.
    """
    ctor, ground, labels = build_ground_set(n)
    lemma_report = verify_lemmas(ctor)

    full = full_mask(n)
    target = ground.lattice(max_ground=ground.n)
    source = subm_lattice(n)

    piece_gens = {piece: face_generators(ctor.base, [piece])
                  for piece in range(1, full + 1)}
    supports = []
    audit_ok = True
    for x in ground.points:
        lam = _barycentric(x)
        assert min(lam) >= 0
        s = sum(1 << i for i, c in enumerate(lam) if c > 0)
        supports.append(s)
        for piece, gens in piece_gens.items():
            if strict_hull_member(x, gens) != (piece == s):
                audit_ok = False

    image = [sum(1 << bit for bit, s in enumerate(supports) if code >> (full ^ s) & 1)
             for code in source.labels]
    defects = map_defects(source, ground, image)
    emb_witness = next(filter(None, defects.values()), None)
    lb_ok, lb_witness = check_lower_bounded(target)
    source_lb_ok, _ = check_lower_bounded(source)
    defect = emb_witness or lb_witness

    report = {
        "n": n,
        "ground_size": ground.n,
        "schedule_amounts": [str(a) for a in ctor.amounts],
        "lemmas_ok": lemma_report.ok,
        "lemma_summary": lemma_report.summary(),
        "piece_audit_ok": audit_ok,
        # F -> F minus full is a bijection onto the meet-closed families
        # without full, since a ∩ b = full only for a = b = full
        "families_total": 2 * source.n,
        "families_top": source.n,
        "source_size": source.n,
        "target_size": target.n,
        "injective": defects["not-injective"] is None,
        "meet_preserving": defects["meet-not-preserved"] is None,
        "join_preserving": defects["join-not-preserved"] is None,
        "embedding_verified": emb_witness is None,
        "lower_bounded": lb_ok,
        "source_lower_bounded": source_lb_ok,
        "image_closed": defects["image-not-closed"] is None,
        "notes": ("embedding domain restricted to families containing the full "
                  "set; the face-interior image of the full set is empty, so "
                  "the unrestricted family lattice maps two-to-one onto the "
                  "same traces"),
    }
    return EmbeddingWitness(ctor, ground, labels, source, target, image, report, defect)
