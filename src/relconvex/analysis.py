"""Decision procedures on finite lattices and closure operators.

Every checker is exhaustive over its quantifiers (no sampling), and each
negative answer comes with a re-checkable witness.  The triple properties
share one first-witness scan, one numpy pass per element x over the join/meet
index tables; join-semidistributivity is decided from the meet-irreducibles
by one matrix product and runs that scan only to name a failing triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .lattice import FiniteLattice

SDV_VIOLATION = "sdv-violation"
ANTI_EXCHANGE_VIOLATION = "anti-exchange-violation"
D_CYCLE = "d-cycle"
BIATOMICITY_VIOLATION = "biatomicity-violation"
WEAK_ATOM_VIOLATION = "weak-atom-violation"
M3_SUBLATTICE = "m3-sublattice"
EMBEDDING_DEFECT = "embedding-defect"
DISTRIBUTIVITY_VIOLATION = "distributivity-violation"


@dataclass
class Witness:
    kind: str
    elements: list
    info: dict = field(default_factory=dict)

    def to_json(self):
        return {"kind": self.kind, "elements": list(self.elements), "info": dict(self.info)}


# ---------------------------------------------------------------------------
# semidistributivity and friends


def _first_triple(kind: str, rows, elements=None) -> tuple[bool, Optional[Witness]]:
    """(False, witness) for the first x whose violation matrix ``viol`` is not
    all False, with (y, z) its first True entry in row-major order, or
    (True, None).  ``rows`` yields (x, viol); ``elements`` maps the indices
    y and z to lattice elements."""
    for x, viol in rows:
        if viol.any():
            y, z = np.argwhere(viol)[0]
            if elements is not None:
                y, z = elements[y], elements[z]
            return False, Witness(kind, [int(x), int(y), int(z)], {"roles": ["x", "y", "z"]})
    return True, None


def check_jsd(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """x∨y = x∨z implies x∨y = x∨(y∧z), for all triples.

    The verdict is the κ test, the dual of Theorem 2.56 in Freese, Ježek &
    Nation, *Free Lattices* (1995): a finite lattice is SD-join iff for every
    meet-irreducible m with upper cover m*, the set {x : x ≤ m*, x ≰ m} has a
    least element.  When it fails, the witness is the first triple (x, y, z)
    of a scan over x, then (y, z) in row-major order."""
    J, M = lat.join_table, lat.meet_table   # raises NotALatticeError first
    if _kappa_jsd(lat):
        return True, None
    return _first_triple(SDV_VIOLATION, (
        (x, (jx[:, None] == jx[None, :]) & (jx[M] != jx[:, None])) for x, jx in enumerate(J)))


def _kappa_jsd(lat: FiniteLattice) -> bool:
    """Whether every meet-irreducible m has a least element in
    S_m = {x : x ≤ m*, x ≰ m}: s in S_m is least iff no x in S_m has s ≰ x,
    and one product counts those x for every pair (m, s).  The counts are
    at most n, far below 2**53, so float64 holds them exactly."""
    covers, leq = lat.covers_matrix(), lat.leq
    m = np.flatnonzero(covers.sum(axis=1) == 1)
    star = np.nonzero(covers[m])[1]          # one upper cover per row
    S = (leq[:, star] & ~leq[:, m]).T       # S[k, x]: x ≤ m*_k and x ≰ m_k
    bad = S.astype(np.float64) @ (~leq).T.astype(np.float64)
    return bool((S & (bad == 0)).any(axis=1).all())


def check_distributive(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """x∨(y∧z) = (x∨y)∧(x∨z) for all triples."""
    J, M = lat.join_table, lat.meet_table
    return _first_triple(DISTRIBUTIVITY_VIOLATION, (
        (x, jx[M] != M[jx[:, None], jx[None, :]]) for x, jx in enumerate(J)))


def check_weak_atom_property(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """For atoms y, z: x∨y = x∨z forces y = z or y, z both below x."""
    at = np.array(lat.atoms(), dtype=np.intp)
    J, leq = lat.join_table, lat.leq
    distinct = ~np.eye(len(at), dtype=bool)

    def rows():
        for x in range(lat.n):
            jxa, below = J[x, at], leq[at, x]
            yield x, (jxa[:, None] == jxa[None, :]) & ~(below[:, None] & below[None, :]) & distinct

    return _first_triple(WEAK_ATOM_VIOLATION, rows(), at)


def check_biatomic(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """Every atom below y∨z (y, z nonzero) is below a join of atoms
    y' <= y, z' <= z."""
    atoms = lat.atoms()
    J, leq = lat.join_table, lat.leq
    at = np.array(atoms, dtype=np.intp)
    nonzero = np.arange(lat.n) != lat.bottom()
    BM = leq[at, :].T.astype(np.float64)          # BM[y, k]: atom k below y
    JA = J[np.ix_(at, at)]

    def rows():
        for x in atoms:
            P = leq[x][JA].astype(np.float64)     # P[k, l]: x <= a_k ∨ a_l
            Q = (BM @ P @ BM.T) > 0
            yield x, leq[x, J] & nonzero[:, None] & nonzero[None, :] & ~Q

    return _first_triple(BIATOMICITY_VIOLATION, rows())


def find_m3(lat: FiniteLattice) -> Optional[Witness]:
    """Five elements forming a diamond sublattice, or None.  M3 is not
    SD-join and sublattices keep SD-join, so an SD-join lattice has none."""
    J, M, leq = lat.join_table, lat.meet_table, lat.leq
    if _kappa_jsd(lat):
        return None
    incomp = ~leq & ~leq.T
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            if not incomp[a, b]:
                continue
            j, m = J[a, b], M[a, b]
            cand = (incomp[a] & incomp[b]
                    & (J[a] == j) & (J[b] == j)
                    & (M[a] == m) & (M[b] == m))
            cand[: b + 1] = False
            if cand.any():
                c = int(np.argmax(cand))
                return Witness(M3_SUBLATTICE, [int(m), a, b, c, int(j)],
                               {"roles": ["bottom", "a", "b", "c", "top"]})
    return None


# ---------------------------------------------------------------------------
# anti-exchange


class ClosureTable:
    """Explicit closure operator on {0..n-1}, for abstract counterexamples."""

    def __init__(self, n: int, table: dict[int, int]):
        self.n = n
        full = 1 << n
        self._table = dict(table)
        for mask in self._table:
            if not 0 <= mask < full:
                raise InputError(f"closure table key {mask} is not a subset of {n} points")
        for mask in range(full):
            cl = self._table.get(mask)
            if cl is None:
                raise InputError(f"closure table missing subset {mask:b}")
            if cl & mask != mask:
                raise InputError("closure table not extensive")
            if self._table.get(cl) != cl:
                raise InputError("closure table not idempotent")
        for mask in range(full):
            for i in range(n):
                sup = mask | (1 << i)
                if self._table[mask] & self._table[sup] != self._table[mask]:
                    raise InputError("closure table not monotone")

    def closure_mask(self, mask: int) -> int:
        return self._table[mask]

    def enumerate_closed_masks(self) -> list[int]:
        return [m for m in range(1 << self.n) if self._table[m] == m]


def check_anti_exchange(operator, closed: Optional[Sequence[int]] = None
                        ) -> tuple[bool, Optional[Witness]]:
    """Anti-exchange axiom for a closure operator (FiniteGround or table):
    for closed A and distinct x, y outside A, x in cl(A+y) forbids
    y in cl(A+x).  ``closed`` lists the operator's closed sets when the
    caller has enumerated them (say under a ground-size bound)."""
    n = operator.n
    if closed is None:
        closed = operator.enumerate_closed_masks()
    for A in closed:
        added = [operator.closure_mask(A | (1 << y)) if not A >> y & 1 else 0
                 for y in range(n)]
        for x in range(n):
            if A >> x & 1:
                continue
            for y in range(x + 1, n):
                if A >> y & 1:
                    continue
                if added[y] >> x & 1 and added[x] >> y & 1:
                    return False, Witness(
                        ANTI_EXCHANGE_VIOLATION,
                        [A, x, y],
                        {"roles": ["closed-set-mask", "x", "y"]})
    return True, None


# ---------------------------------------------------------------------------
# join dependency, lower boundedness


def d_relation(lat: FiniteLattice) -> dict[int, list[int]]:
    """Directed graph a -> b on join-irreducibles: some p gives a <= b∨p
    while a is not below c∨p for any c < b (equivalently for the unique
    lower cover c of b).  Each b is tested against every a in one pass."""
    jis = lat.join_irreducibles()
    J, leq = lat.join_table, lat.leq
    lower = lat.covers_matrix()[:, jis].argmax(axis=0)    # each b's one lower cover
    out: dict[int, list[int]] = {a: [] for a in jis}
    for b, c in zip(jis, lower):
        hit = (leq[np.ix_(jis, J[b])] & ~leq[np.ix_(jis, J[c])]).any(axis=1)
        for i in np.flatnonzero(hit):
            if jis[i] != b:
                out[jis[i]].append(b)
    return out


def find_d_cycle(graph: dict[int, list[int]]) -> Optional[list[int]]:
    """A directed cycle in the relation, as a node list (first == last): the
    first back edge of a depth-first search that keeps its path, with one
    iterator over the unvisited successors of each node on it."""
    done: set[int] = set()
    for root in graph:
        if root in done:
            continue
        path, branches = [root], [iter(graph[root])]
        while branches:
            nxt = next(branches[-1], None)
            if nxt is None:
                done.add(path.pop())
                branches.pop()
            elif nxt in path:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in done:
                path.append(nxt)
                branches.append(iter(graph[nxt]))
    return None


def check_lower_bounded(lat: FiniteLattice) -> tuple[bool, Optional[Witness]]:
    """A finite lattice is lower bounded iff its join-dependency relation is
    acyclic."""
    graph = d_relation(lat)
    cycle = find_d_cycle(graph)
    if cycle is None:
        return True, None
    return False, Witness(D_CYCLE, cycle, {"roles": ["join-irreducible"] * len(cycle)})


# ---------------------------------------------------------------------------
# lattice maps


def map_defects(source: FiniteLattice, closure, image: Sequence[int]
                ) -> dict[str, Optional[Witness]]:
    """First witness against each embedding property of the map sending
    source element i to the closed-set mask ``image[i]`` of ``closure`` (a
    FiniteGround or ClosureTable).  Keys, in report order: "image-not-closed",
    "not-injective", "join-not-preserved", "meet-not-preserved"; a value is
    None when the property holds.

    The target's meet is AND and its join the closure of the union.  Joins
    are checked against the source's join-irreducibles j only: a = 0 gives
    f(0) ≤ f(j), and every element is a join of join-irreducibles, so
    f(a ∨ j) = f(a) ∨ f(j) for all a and j gives every join.  A union equal
    to the closed f(a ∨ j) is its own closure, so it takes no closure call.
    """
    defects: dict[str, Optional[Witness]] = dict.fromkeys(
        ["image-not-closed", "not-injective", "join-not-preserved", "meet-not-preserved"])

    def found(reason, elements, **info):
        defects[reason] = Witness(EMBEDDING_DEFECT, elements, {"reason": reason, **info})

    for i, m in enumerate(image):
        if closure.closure_mask(m) != m:
            found("image-not-closed", [i], mask=m)
            break
    first: dict[int, int] = {}
    for i, m in enumerate(image):
        if first.setdefault(m, i) != i:
            found("not-injective", [first[m], i])
            break
    J = source.join_table
    for a, j in itertools.product(range(source.n), source.join_irreducibles()):
        f_join, union = image[J[a, j]], image[a] | image[j]
        if f_join != union and f_join != closure.closure_mask(union):
            found("join-not-preserved", [a, j])
            break
    img = np.array(image, dtype=np.int64)
    ok = img[source.meet_table] == img[:, None] & img[None, :]
    if not ok.all():
        found("meet-not-preserved", list(map(int, np.argwhere(~ok)[0])))
    return defects
