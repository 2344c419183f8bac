"""The four workloads: seeded inputs, the timed body of one item, and the
untimed correctness gate for it.

Each workload draws its inputs from ``random.Random(seed)`` only; relconvex
receives the generated points, simplices and fixture documents.  An item's
body calls the public API and serialises every result with ``relconvex.io``
the way the CLI does; the gate then checks theorem verdicts and re-validates
every negative witness independently of the call that produced it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import relconvex as rc
from relconvex import io as rio

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"


def report(check: str, ok: bool, witness=None, **extra) -> dict:
    """The CLI's report document for one check (without --timings)."""
    payload = {"schema_version": rio.SCHEMA_VERSION, "check": check, "result": bool(ok)}
    if witness is not None:
        payload["witness"] = witness.to_json() if hasattr(witness, "to_json") else witness
    payload.update(extra)
    return payload


def random_points(rng: random.Random, size: int, dim: int, span: int = 6) -> list:
    """Distinct points with coordinates a/b, |a| <= span, 1 <= b <= 3 (the
    distribution of the acceptance suite's random grounds)."""
    pts = set()
    while len(pts) < size:
        pts.add(tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3))
                      for _ in range(dim)))
    return sorted(pts)


def _unimodular(rng: random.Random, dim: int) -> list:
    """An integer matrix of determinant +-1: a row swap and two shears."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    i, j = rng.sample(range(dim), 2)
    m[i], m[j] = m[j], m[i]
    for _ in range(2):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


# ---------------------------------------------------------------------------
# witness re-validation, independent of the checker that produced the witness


def d_cycle_problems(lat, witness) -> list[str]:
    cycle = list(witness.elements)
    if witness.kind != "d-cycle" or len(cycle) < 3 or cycle[0] != cycle[-1]:
        return [f"malformed d-cycle witness {witness.to_json()}"]
    graph = rc.d_relation(lat)
    bad = [(a, b) for a, b in zip(cycle, cycle[1:]) if b not in graph.get(a, ())]
    return [f"d-cycle edge {a}->{b} not in d_relation" for a, b in bad]


def biatomic_problems(lat, witness) -> list[str]:
    """x is an atom below y v z (y, z nonzero) but below no a v b with atoms
    a <= y, b <= z."""
    x, y, z = witness.elements
    J, leq = lat.join_table, lat.leq
    atoms = lat.atoms()
    bot = lat.bottom()
    ok = (x in atoms and y != bot and z != bot and leq[x, J[y, z]]
          and not any(leq[x, J[a, b]] for a in atoms if leq[a, y]
                      for b in atoms if leq[b, z]))
    return [] if ok else [f"biatomicity witness {witness.elements} does not re-validate"]


# ---------------------------------------------------------------------------
# point-grounds


class PointGrounds:
    """Random grounds of 4-8 planar or 4-6 spatial points; each gets
    anti-exchange, lattice(), check_jsd and check_lower_bounded."""

    name = "point-grounds"
    pool = 1500
    trace_items = 75
    # One stratified cycle: the acceptance suite's 4:1 planar/spatial mix
    # with every size equally often, shuffled per cycle.
    CYCLE = [(2, s) for s in range(4, 9) for _ in range(12)] + \
            [(3, s) for s in range(4, 7) for _ in range(5)]

    def prepare(self):
        return None

    def inputs(self, state, seed):
        rng = random.Random(seed)
        while True:
            order = list(self.CYCLE)
            rng.shuffle(order)
            for dim, size in order:
                yield random_points(rng, size, dim)

    def run(self, pts):
        g = rc.FiniteGround(pts)
        ae = rc.check_anti_exchange(g)
        lat = g.lattice()
        jsd = rc.check_jsd(lat)
        lb = rc.check_lower_bounded(lat)
        texts = [rio.dumps(rio.lattice_to_json(lat)),
                 rio.dumps(report("antiexchange", *ae)),
                 rio.dumps(report("jsd", *jsd)),
                 rio.dumps(report("lb", *lb))]
        return texts, (lat, ae, jsd, lb)

    def check(self, pts, facts) -> list[str]:
        lat, ae, jsd, lb = facts
        problems = []
        if not ae[0]:
            problems.append("anti-exchange fails on a point ground")
        if not jsd[0]:
            problems.append("join-semidistributivity fails on a point ground")
        if not lb[0]:
            problems += d_cycle_problems(lat, lb[1])
        return problems


# ---------------------------------------------------------------------------
# large-lattices


class LargeLattices:
    """Planar grounds of 11 and 12 points with about 600 closed sets; each gets
    NextClosure, the lattice tables, jsd, lb, weak-atom and biatomic checks and
    the ``build --tables`` JSON.

    The grounds are unimodular affine images, with shuffled point order, of
    the templates in large_grounds.json.  An affine bijection keeps the
    closed-set lattice, so every item's lattice size and verdicts must equal
    the template's.
    """

    name = "large-lattices"
    pool = 60
    trace_items = 3

    def prepare(self):
        with open(HERE / "large_grounds.json") as fh:
            doc = json.load(fh)
        return [dict(t, points=[rio.point_from_json(p) for p in t["points"]])
                for t in doc["templates"]]

    def inputs(self, templates, seed):
        rng = random.Random(seed)
        while True:
            for t in templates:
                m = _unimodular(rng, 2)
                shift = [rng.randint(-3, 3) for _ in range(2)]
                pts = [tuple(sum(m[i][k] * p[k] for k in range(2)) + shift[i]
                             for i in range(2)) for p in t["points"]]
                rng.shuffle(pts)
                yield t, pts

    def run(self, inp):
        _, pts = inp
        g = rc.FiniteGround(pts)
        lat = g.lattice()
        jsd = rc.check_jsd(lat)
        lb = rc.check_lower_bounded(lat)
        wa = rc.check_weak_atom_property(lat)
        bi = rc.check_biatomic(lat)
        texts = [rio.dumps(rio.lattice_to_json(lat, include_tables=True)),
                 rio.dumps(report("jsd", *jsd)),
                 rio.dumps(report("lb", *lb)),
                 rio.dumps(report("weakatom", *wa)),
                 rio.dumps(report("biatomic", *bi))]
        return texts, (lat, jsd, lb, wa, bi)

    def check(self, inp, facts) -> list[str]:
        template, _ = inp
        lat, jsd, lb, wa, bi = facts
        problems = []
        if lat.n != template["closed_sets"]:
            problems.append(f"{lat.n} closed sets, template has {template['closed_sets']}")
        if not jsd[0]:
            problems.append("join-semidistributivity fails on a point ground")
        if not wa[0]:
            problems.append("weak atom property fails on a join-semidistributive lattice")
        if lb[0] != template["lower_bounded"] or bi[0] != template["biatomic"]:
            problems.append("lb or biatomic verdict differs from the template's")
        if not lb[0]:
            problems += d_cycle_problems(lat, lb[1])
        if not bi[0]:
            problems += biatomic_problems(lat, bi[1])
        return problems


# ---------------------------------------------------------------------------
# open-hulls


# three_lines_bounded is left out: its random triples are heavy-tailed (one
# in forty took 3 s, six times its median), and with it five seeds spread
# open-hulls' items_per_s by 29% between quartiles.
SEGMENT_FIXTURES = ("cevian_ground", "triangle_edges", "disjoint_segments")
# Carriers with disjoint closures (condition i) or inside proper faces of a
# polytope (condition ii) give a join-semidistributive lattice.
SD_BY_THEOREM = {"disjoint_segments", "triangle_edges"}


class OpenHulls:
    """verify_claim_join on every subset pair for 2- and 3-simplices, one
    random unimodular simplex per item, with one seeded sdv_spot_check triple
    on a segment fixture after every twelfth pair."""

    name = "open-hulls"
    pool = 1200
    trace_items = 42
    TRIPLE_EVERY = 12

    def prepare(self):
        docs = {}
        for name in SEGMENT_FIXTURES:
            with open(FIXTURES / f"{name}.json") as fh:
                docs[name] = json.load(fh)
        return docs

    def inputs(self, docs, seed):
        rng = random.Random(seed)
        pairs = [(n, a, b) for n in (2, 3)
                 for a in range(1 << (n + 1))
                 for b in range(a, 1 << (n + 1))]
        # Golden-ratio order: every stretch of the cycle samples the sorted
        # pair list evenly, so a run holds the same mix of pair kinds (and
        # costs) whatever its length; the seed draws simplices and triples.
        order = [pairs[i] for i in sorted(range(len(pairs)),
                                          key=lambda i: (i * 0.6180339887498949) % 1)]
        fixture = 0
        while True:
            for k, (n, a, b) in enumerate(order):
                yield ("claim", n, a, b, self._simplex(rng, n))
                if k % self.TRIPLE_EVERY == self.TRIPLE_EVERY - 1:
                    name = SEGMENT_FIXTURES[fixture % len(SEGMENT_FIXTURES)]
                    fixture += 1
                    yield ("triple", name, docs[name], rng.randrange(1 << 31))

    @staticmethod
    def _simplex(rng: random.Random, n: int) -> list:
        """A unimodular integer simplex: an integer point plus the rows of a
        determinant +-1 matrix, so every claim's LPs stay small and alike."""
        base = [rng.randint(-2, 2) for _ in range(n)]
        return [tuple(Fraction(v) for v in base)] + \
               [tuple(Fraction(b + e) for b, e in zip(base, edge))
                for edge in _unimodular(rng, n)]

    def run(self, inp):
        if inp[0] == "claim":
            _, n, a, b, verts = inp
            ok, detail = rc.verify_claim_join(a, b, rc.VPolytope(verts, assume_extreme=True))
            return [rio.dumps(report("join-claim", ok, pair=[n, a, b], detail=detail))], ok
        _, name, doc, seed = inp
        ok, info = rc.sdv_spot_check(rio.segment_ground_from_json(doc), count=1, seed=seed)
        witness = None
        if not ok:
            witness = {"kind": "sdv-violation",
                       "a_join_b": rio.subsegment_set_to_json(info["a_join_b"]),
                       "a_join_meet": rio.subsegment_set_to_json(info["a_join_meet"])}
        text = rio.dumps(report("segment-semidistributivity", ok, witness, triples=1))
        return [text], (ok, info)

    def check(self, inp, facts) -> list[str]:
        if inp[0] == "claim":
            return [] if facts else [f"join claim fails for pair {inp[1:4]}"]
        name = inp[1]
        ok, info = facts
        if ok:
            return []
        if name in SD_BY_THEOREM:
            return [f"SD violation on {name}, which meets a sufficient condition"]
        a, b, c = info["a"], info["b"], info["c"]
        ab, ac = rc.seg_join(a, b), rc.seg_join(a, c)
        amc = rc.seg_join(a, rc.seg_meet(b, c))
        if ab == ac and amc != ab and ab == info["a_join_b"] and amc == info["a_join_meet"]:
            return []
        return [f"SD violation witness on {name} does not re-validate"]


# ---------------------------------------------------------------------------
# embedding


class Embedding:
    """build_embedding(1) and build_embedding(2), each followed by the
    artifacts of ``relconvex embed``: ground, construction and report JSON,
    plus the SVG for n = 2.  The construction depends on n alone, so the
    seed does not change the inputs."""

    name = "embedding"
    pool = 100
    trace_items = 3
    EXPECTED = {1: {"ground_size": 3}, 2: {"ground_size": 10, "source_size": 61,
                                           "target_size": 309}}
    N2_DEFECT = [5, 6, 5]

    def prepare(self):
        return None

    def inputs(self, state, seed):
        while True:
            yield (1, 2)

    @staticmethod
    def artifacts(n: int, w) -> list[str]:
        ground_doc = rio.ground_to_json(w.ground)
        ground_doc["labels"] = [str(lab) for lab in w.labels]
        ctor = w.construction
        construction = {
            "schema_version": rio.SCHEMA_VERSION,
            "type": "construction",
            "n": n,
            "schedule_amounts": [rio.rat_to_str(a) for a in ctor.amounts],
            "schedule_ratios": [rio.rat_to_str(1 - a) for a in ctor.amounts],
            "copies": {
                ",".join(map(str, sorted(A))): {
                    str(i): rio.point_to_json(p) for i, p in sorted(pts.items())}
                for A, pts in sorted(ctor.copies.items(),
                                     key=lambda kv: (len(kv[0]), sorted(kv[0])))},
            "center": rio.point_to_json(ctor.center),
        }
        rep = dict(w.report)
        if w.defect is not None:
            rep["defect"] = w.defect.to_json()
        texts = [rio.dumps(ground_doc), rio.dumps(construction),
                 rio.dumps(report("embedding", w.verified, report=rep))]
        if w.ground.dim == 2:
            texts.append(rio.points_svg(w.ground.points, [str(lab) for lab in w.labels]))
        return texts

    def run(self, ns):
        texts, built = [], []
        for n in ns:
            w = rc.build_embedding(n)
            texts += self.artifacts(n, w)
            built.append(w)
        return texts, built

    def check(self, ns, built) -> list[str]:
        problems = []
        clauses = ("lemmas_ok", "piece_audit_ok", "injective", "meet_preserving",
                   "join_preserving", "embedding_verified", "image_closed")
        for n, w in zip(ns, built):
            rep = w.report
            for key, want in self.EXPECTED[n].items():
                if rep[key] != want:
                    problems.append(f"n={n}: {key} = {rep[key]}, expected {want}")
            problems += [f"n={n}: clause {c} fails" for c in clauses if not rep[c]]
            if n == 1 and not rep["lower_bounded"]:
                problems.append("n=1: target not lower bounded")
            if n == 2:
                # The ground has four collinear points on each base edge, so
                # the target carries a D-cycle (README, "Known limit").
                if rep["lower_bounded"] or w.defect is None:
                    problems.append("n=2: expected the known D-cycle defect")
                elif w.defect.elements != self.N2_DEFECT:
                    problems.append(f"n=2: defect {w.defect.elements}, "
                                    f"expected {self.N2_DEFECT}")
                else:
                    problems += d_cycle_problems(w.target, w.defect)
        return problems


WORKLOADS = {w.name: w for w in (PointGrounds(), LargeLattices(), OpenHulls(), Embedding())}
