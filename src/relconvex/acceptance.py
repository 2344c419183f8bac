"""The acceptance suite: nine property/construction checks, all exact.

Each criterion returns (ok, detail).  They are invoked both by the pytest
gate (tests/test_acceptance.py) and by the `verify-paper` CLI command, which
prints one line per criterion.  Seeds are fixed so every run checks the same
instances.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .analysis import (
    D_CYCLE,
    check_anti_exchange,
    check_distributive,
    check_jsd,
    check_lower_bounded,
    d_relation,
)
from .boolsub import full_mask, verify_claim_join
from .closure import FiniteGround
from .embedding import build_embedding
from .geometry import (
    MixedGenerators,
    Point,
    Segment,
    VPolytope,
    caratheodory_witness,
    combination,
    hull_member,
    qp,
    standard_simplex,
    strict_hull_member,
)
from .intervals import Interval
from .segments import (
    SegmentUnionGround,
    SubsegmentSet,
    check_condition_disjoint,
    check_condition_faces,
    face_hom_check,
    face_restriction_check,
    sdv_spot_check,
    seg_join,
    seg_meet,
)


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    elapsed: float


def _random_ground(rng: random.Random, size: int, dim: int, span: int = 6) -> FiniteGround:
    pts = set()
    while len(pts) < size:
        pts.add(tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3))
                      for _ in range(dim)))
    return FiniteGround(sorted(pts))


def criterion_1_convex_geometry_suite() -> tuple[bool, str]:
    """Anti-exchange and join-semidistributivity on seeded random grounds."""
    rng = random.Random(101)
    cases = [(2, rng.randint(4, 8)) for _ in range(200)]
    cases += [(3, rng.randint(4, 6)) for _ in range(50)]
    for idx, (dim, size) in enumerate(cases):
        g = _random_ground(rng, size, dim)
        ok, w = check_anti_exchange(g)
        if not ok:
            return False, f"anti-exchange failed on instance {idx}: {w.to_json()}"
        ok, w = check_jsd(g.lattice())
        if not ok:
            return False, f"semidistributivity failed on instance {idx}: {w.to_json()}"
    return True, f"{len(cases)} grounds checked (200 planar, 50 spatial)"


def _cycle_defect(lat, witness) -> Optional[str]:
    """Why a d-cycle witness fails to re-validate against the lattice's own
    join-dependency relation, or None when every edge holds."""
    cycle = witness.elements
    if witness.kind != D_CYCLE or cycle[0] != cycle[-1] or len(cycle) < 3:
        return f"malformed cycle witness {cycle}"
    graph = d_relation(lat)
    for a, b in zip(cycle, cycle[1:]):
        if b not in graph.get(a, ()):
            return f"cycle edge {a}->{b} does not re-validate"
    return None


def criterion_2_collinear_not_lower_bounded() -> tuple[bool, str]:
    """Four collinear points: a join-dependency cycle must exist."""
    g = FiniteGround([qp(0), qp(1), qp(2), qp(3)])
    lat = g.lattice()
    ok, w = check_lower_bounded(lat)
    if ok:
        return False, "no dependency cycle found on four collinear points"
    bad = _cycle_defect(lat, w)
    if bad:
        return False, bad
    return True, f"cycle of length {len(w.elements) - 1} re-validated"


def _convex_polygon(k: int) -> list[Point]:
    zoo = {
        3: [(0, 0), (4, 0), (0, 4)],
        4: [(0, 0), (4, 0), (4, 4), (0, 4)],
        5: [(0, 0), (4, 0), (6, 3), (2, 6), (-2, 3)],
        6: [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)],
    }
    return [qp(*p) for p in zoo[k]]


def criterion_3_convex_position_boolean() -> tuple[bool, str]:
    """Vertices of a convex k-gon: Boolean lattice, distributive."""
    for k in range(3, 7):
        pts = _convex_polygon(k)
        g = FiniteGround(pts)
        lat = g.lattice()
        if lat.n != 1 << k:
            return False, f"{k}-gon produced {lat.n} closed sets, expected {1 << k}"
        ok, w = check_distributive(lat)
        if not ok:
            return False, f"{k}-gon lattice not distributive: {w.to_json()}"
    return True, "k = 3..6 all Boolean and distributive"


def criterion_4_join_claim() -> tuple[bool, str]:
    """The hull-of-two-pieces identity for every subset pair, n = 2 and 3."""
    checked = 0
    for n in (2, 3):
        simplex = standard_simplex(n)
        full = full_mask(n)
        for a in range(full + 1):
            for b in range(a, full + 1):
                ok, detail = verify_claim_join(a, b, simplex)
                if not ok:
                    return False, f"pair (n={n}, a={a}, b={b}) failed: {detail}"
                checked += 1
    return True, f"{checked} subset pairs verified"


def _collinear_cycle(w) -> tuple[bool, str]:
    """The target's d-cycle re-validates, and its join-irreducibles are
    singletons whose points lie strictly inside a segment between two
    further ground points: the inner points of four collinear ones, the
    configuration of criterion 2."""
    if w.defect is None:
        return False, "no defect reported"
    bad = _cycle_defect(w.target, w.defect)
    if bad:
        return False, bad
    masks = [int(w.target.labels[e]) for e in w.defect.elements]
    if any(m.bit_count() != 1 for m in masks):
        return False, f"cycle element not a single point: {masks}"
    pts = w.ground.points
    inner = sorted({pts[m.bit_length() - 1] for m in masks})
    shown = ", ".join("(" + ", ".join(map(str, x)) + ")" for x in inner)
    for p, q in itertools.combinations(pts, 2):
        gens = MixedGenerators(segments=(Segment(p, q, False, False),))
        if all(strict_hull_member(x, gens) for x in inner):
            return True, f"cycle {w.defect.elements} re-validated on {shown}"
    return False, f"cycle points {shown} are not inner points of a collinear four"


def criterion_5_embedding() -> tuple[bool, str]:
    """Ground-set sizes, lemma certificates and a verified embedding for
    n = 1 and n = 2; lower boundedness of the embedded family lattice, the
    theorem's hypothesis; and the target's verdict against the proof: lower
    bounded for n = 1 (three collinear points), while for n = 2 four
    collinear points on a base edge force a d-cycle, which passes to the
    target as a sublattice, so the witness must re-validate there."""
    clauses = []
    for n, expected_size in ((1, 3), (2, 10)):
        w = build_embedding(n)
        clauses.append((f"ground size n={n}", w.report["ground_size"] == expected_size,
                        f"|X| = {w.report['ground_size']}"))
        clauses.append((f"lemmas n={n}", w.report["lemmas_ok"],
                        str(w.report["lemma_summary"])))
        clauses.append((f"embedding n={n}", w.report["embedding_verified"],
                        f"{w.report['source_size']} -> {w.report['target_size']}"))
        clauses.append((f"lower-bounded source n={n}", w.report["source_lower_bounded"],
                        f"{w.report['source_size']} families"))
        if n == 1:
            clauses.append((f"lower-bounded target n={n}", w.report["lower_bounded"],
                            "defect: " + (str(w.defect.to_json()) if w.defect else "none")))
        elif w.report["lower_bounded"]:
            clauses.append((f"collinear d-cycle in target n={n}", False,
                            "target reported lower bounded"))
        else:
            clauses.append((f"collinear d-cycle in target n={n}", *_collinear_cycle(w)))
    bad = [c for c in clauses if not c[1]]
    if bad:
        msgs = "; ".join(f"{name} FAILED ({info})" for name, _, info in bad)
        return False, msgs
    return True, ("all embedding clauses hold for n = 1, 2: sources lower bounded, "
                  f"n = 1 target lower bounded, n = 2 target {clauses[-1][2]}")


def _pm_ground() -> SegmentUnionGround:
    return SegmentUnionGround([
        Segment(qp(-1, 0), qp(1, 0)),
        Segment(qp("-1/4", "1/2"), qp(0, 2)),
        Segment(qp("1/4", "1/2"), qp(0, 2)),
    ])


def _pm_triple(g: SegmentUnionGround):
    one = Fraction(1)
    a = SubsegmentSet(g, [[Interval(Fraction(0), one)], [], []])
    b = SubsegmentSet(g, [[], [Interval(Fraction(0), one, False, False)], []])
    c = SubsegmentSet(g, [[], [], [Interval(Fraction(0), one, False, False)]])
    return a, b, c


def criterion_6_pm_violation() -> tuple[bool, str]:
    """The two cevians over a base segment defeat join-semidistributivity."""
    g = _pm_ground()
    a, b, c = _pm_triple(g)
    ab, ac = seg_join(a, b), seg_join(a, c)
    expected = SubsegmentSet(g, [
        [Interval(Fraction(0), Fraction(1))],
        [Interval(Fraction(0), Fraction(1), True, False)],
        [Interval(Fraction(0), Fraction(1), True, False)],
    ])
    if ab != expected or ac != expected:
        return False, "joins do not equal the ground minus the apex"
    if seg_join(a, seg_meet(b, c)) != a:
        return False, "join with the met cevians is not the base segment"
    ok, _ = sdv_spot_check(g, triples=[(a, b, c)])
    if ok:
        return False, "spot check missed the violation"
    return True, "A∨B = A∨C = X minus apex, A∨(B∧C) = A"


def criterion_7_condition_checkers() -> tuple[bool, str]:
    g = _pm_ground()
    tri = VPolytope([qp(-1, 0), qp(1, 0), qp(0, 2)])
    ok_i, pair = check_condition_disjoint(g)
    if ok_i or pair != (1, 2):
        return False, f"disjointness check on the cevian ground: {ok_i}, {pair}"
    ok_ii, bad = check_condition_faces(g, tri)
    if ok_ii or bad not in (1, 2):
        return False, f"face condition on the cevian ground: {ok_ii}, {bad}"
    disjoint = SegmentUnionGround([
        Segment(qp(0, 0), qp(1, 0)), Segment(qp(0, 2), qp(1, 2))])
    if not check_condition_disjoint(disjoint)[0]:
        return False, "disjoint fixture rejected"
    edges = SegmentUnionGround([
        Segment(qp(-1, 0), qp(1, 0)), Segment(qp(-1, 0), qp(0, 2)),
        Segment(qp(1, 0), qp(0, 2))])
    if not check_condition_faces(edges, tri)[0]:
        return False, "triangle-edge fixture rejected"
    return True, "both conditions behave on all three fixtures"


def _random_combination(rng: random.Random, verts: Sequence[Point]) -> Point:
    """The combination of verts with weights drawn from 0..3, over their sum
    (the origin when every weight is 0)."""
    w = [Fraction(rng.randint(0, 3)) for _ in verts]
    tot = sum(w) or Fraction(1)
    return combination([wi / tot for wi in w], verts)


def criterion_8_face_restriction_suite() -> tuple[bool, str]:
    rng = random.Random(808)
    zoo = [
        VPolytope([qp(0, 0), qp(4, 0), qp(0, 4)]),
        VPolytope([qp(0, 0), qp(4, 0), qp(4, 4), qp(0, 4)]),
        VPolytope([qp(0, 0, 0), qp(3, 0, 0), qp(0, 3, 0), qp(0, 0, 3)]),
    ]
    checked = 0
    for idx in range(100):
        poly = zoo[rng.randrange(len(zoo))]
        proper = [f for f in poly.faces() if f.is_proper and len(f.indices) >= 2]
        face = proper[rng.randrange(len(proper))]
        if idx % 7 == 0:
            segs = []
            while len(segs) < 2:
                p1 = _random_combination(rng, poly.vertices)
                p2 = _random_combination(rng, poly.vertices)
                if p1 != p2:
                    segs.append(Segment(p1, p2))
            ground = SegmentUnionGround(segs)
            y = SubsegmentSet(ground, [
                [Interval(Fraction(0), Fraction(1, 2))],
                [Interval(Fraction(1, 4), Fraction(1), False, True)],
            ])
        else:
            y = [_random_combination(rng, poly.vertices) for _ in range(rng.randint(1, 6))]
        if not face_restriction_check(y, poly, face):
            return False, f"face restriction failed at instance {idx}"
        checked += 1
    homs = 0
    tri = zoo[0]
    edge = next(f for f in tri.faces() if len(f.indices) == 2)
    for _ in range(20):
        pts = {tri.vertices[i] for i in edge.indices}
        while len(pts) < rng.randint(4, 7):
            pts.add(_random_combination(rng, tri.vertices))
        rep = face_hom_check(sorted(pts), tri, edge)
        if not (rep["trace_closed"] and rep["joins"] and rep["meets"] and rep["surjective"]):
            return False, f"trace homomorphism defect: {rep}"
        homs += 1
    return True, f"{checked} restriction instances, {homs} homomorphism grounds"


def _two_step_witness_valid(q: Point, subset, coords) -> bool:
    """Certify a Carathéodory witness by the two-step segment construction:
    split the containing subset into two halves, blend each half to a point
    x, y on its generator segment, and check q = m1 x + m2 y exactly."""
    half = (len(subset) + 1) // 2
    m1 = sum(coords[:half])
    m2 = sum(coords[half:])
    if m1 == 0 or m2 == 0:
        return True     # a single pair (or point) suffices
    x = combination([w / m1 for w in coords[:half]], subset[:half])
    y = combination([w / m2 for w in coords[half:]], subset[half:])
    return tuple(m1 * xv + m2 * yv for xv, yv in zip(x, y)) == q


def criterion_9_oracle_equivalence() -> tuple[bool, str]:
    rng = random.Random(909)
    for idx in range(30):
        dim = rng.choice([1, 2, 2, 3])
        size = rng.randint(4, 12)
        g = _random_ground(rng, size, dim, span=5)
        if sorted(g.enumerate_closed_masks()) != g.scan_closed_masks():
            return False, f"enumeration mismatch on ground {idx}"
    for idx in range(100):
        dim = rng.choice([1, 2, 3])
        pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(dim)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5 and len(pts) >= 2:
            w = [Fraction(rng.randint(0, 4)) for _ in pts]
            tot = sum(w) or Fraction(1)
            q = combination([wi / tot for wi in w], pts)
        else:
            q = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                      for _ in range(dim))
        witness = caratheodory_witness(q, pts)
        if hull_member(q, pts) != (witness is not None):
            return False, f"membership mismatch at instance {idx}"
        if witness is not None and not _two_step_witness_valid(q, *witness):
            return False, f"no two-step witness at instance {idx}"
    return True, "30 enumerations and 100 membership instances agree"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("1 convex-geometry-suite", criterion_1_convex_geometry_suite),
    ("2 collinear-lower-bound-counterexample", criterion_2_collinear_not_lower_bounded),
    ("3 convex-position-boolean", criterion_3_convex_position_boolean),
    ("4 join-claim", criterion_4_join_claim),
    ("5 embedding-construction", criterion_5_embedding),
    ("6 cevian-sdv-violation", criterion_6_pm_violation),
    ("7 sufficient-conditions", criterion_7_condition_checkers),
    ("8 face-restriction-suite", criterion_8_face_restriction_suite),
    ("9 oracle-equivalence", criterion_9_oracle_equivalence),
]


def run_all() -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        t0 = time.monotonic()
        ok, detail = fn()
        dt = time.monotonic() - t0
        results.append(CriterionResult(name, ok, detail, dt))
        print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail} [{dt:.1f}s]")
    return results
