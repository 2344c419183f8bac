"""Finite ground sets and their closure operator Y -> hull(Y) ∩ X, and
explicit closure tables for abstract operators.

Closed subsets are represented as bitmasks over the ground's point indices.
Membership witnesses are precomputed once per ground: for every point x the
inclusion-minimal subsets of the other points whose hull contains x (by
Caratheodory's theorem subsets of size at most dim+1 suffice).  A closure is
then a single pass of subset tests, which keeps full enumerations cheap.

Hull membership and affine independence do not change under an affine
bijection, so the table is built on the ground's
:func:`relconvex.geometry.integer_columns`.  It then takes one
:func:`relconvex.linalg.span_coordinates` per candidate subset, every
undecided point as a query: one fraction-free elimination and no
``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, InputError, ResourceLimitError
from .geometry import Point, integer_columns
from .lattice import MAX_ELEMENTS, FiniteLattice
from .linalg import span_coordinates

DEFAULT_MAX_GROUND = 20
MAX_SCAN_GROUND = 16


def next_closure(n: int, closure: Callable[[int], int]) -> list[int]:
    """Every closed set of a closure operator on n points, as bitmasks in lectic
    order (Ganter's NextClosure) from closure(0), which may be nonempty.
    Raises ResourceLimitError at the first closed set past MAX_ELEMENTS."""
    out, mask = [], closure(0)
    while True:
        if len(out) == MAX_ELEMENTS:
            raise ResourceLimitError(f"more than {MAX_ELEMENTS} closed sets")
        out.append(mask)
        for i in reversed(range(n)):
            low = (1 << i) - 1
            if not mask >> i & 1:
                candidate = closure((mask & low) | 1 << i)
                if candidate & low == mask & low:
                    mask = candidate
                    break
        else:
            return out


class FiniteGround:
    """An indexed list of pairwise distinct rational points."""

    def __init__(self, points: Sequence[Point]):
        pts = [tuple(Fraction(c) for c in p) for p in points]
        if not pts:
            raise InputError("ground set must be nonempty")
        dim = len(pts[0])
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatch("ground points of different dimension")
        if len(set(pts)) != len(pts):
            raise InputError("ground points must be pairwise distinct")
        self.points: tuple[Point, ...] = tuple(pts)
        self.dim = dim
        self.n = len(pts)
        self._witnesses: Optional[list[list[int]]] = None
        self._closed: Optional[list[int]] = None

    def __repr__(self):
        return f"FiniteGround({self.n} points in Q^{self.dim})"

    def _witness_table(self) -> list[list[int]]:
        if self._witnesses is not None:
            return self._witnesses
        cols = integer_columns(self.points)
        table: list[list[int]] = [[] for _ in range(self.n)]
        # One elimination per candidate subset, every undecided point (one
        # that no witness found so far contains) as a query column: q is in
        # the hull of an affinely independent subset iff its coordinates
        # over it are all >= 0.  Visiting subsets by size, then in
        # combinations order, lists each point's witnesses in the order a
        # per-point search would.
        for size in range(1, self.dim + 2):
            for subset in combinations(range(self.n), size):
                mask = 0
                for j in subset:
                    mask |= 1 << j
                undecided = [q for q in range(self.n)
                             if not mask >> q & 1 and not any(m & mask == m for m in table[q])]
                if not undecided:
                    continue
                coords = span_coordinates([cols[j] for j in subset], [cols[q] for q in undecided])
                for q, c in zip(undecided, coords or ()):
                    if c is not None and min(c) >= 0:
                        table[q].append(mask)
        self._witnesses = table
        return table

    def closure_mask(self, mask: int) -> int:
        """hull(Y) ∩ X for Y given as an index bitmask."""
        if mask == 0:
            return 0
        table = self._witness_table()
        out = mask
        for i in range(self.n):
            bit = 1 << i
            if out & bit:
                continue
            if any(m & mask == m for m in table[i]):
                out |= bit
        return out

    # -- enumeration --------------------------------------------------------

    def enumerate_closed_masks(self, max_ground: int = DEFAULT_MAX_GROUND) -> list[int]:
        """All closed sets, generated in lectic order (NextClosure) on the
        first call and kept, as the witness table is; every call checks
        ``max_ground`` and returns a fresh list."""
        if self.n > max_ground:
            raise ResourceLimitError(
                f"ground of size {self.n} exceeds the enumeration bound {max_ground}")
        if self._closed is None:
            self._closed = next_closure(self.n, self.closure_mask)
        return list(self._closed)

    def scan_closed_masks(self) -> list[int]:
        """Reference enumeration: test every subset for being a fixpoint.

        Exponential; kept as the independent cross-check for the lectic
        enumeration on small grounds.
        """
        if self.n > MAX_SCAN_GROUND:
            raise ResourceLimitError(
                f"ground of size {self.n} exceeds the brute-force bound {MAX_SCAN_GROUND}")
        return [m for m in range(1 << self.n) if self.closure_mask(m) == m]

    def lattice(self, max_ground: int = DEFAULT_MAX_GROUND) -> FiniteLattice:
        return FiniteLattice.from_closed_masks(self.enumerate_closed_masks(max_ground))


class ClosureTable:
    """Explicit closure operator on {0..n-1}, for abstract counterexamples."""

    def __init__(self, n: int, table: dict[int, int]):
        self.n = n
        self._table = dict(table)
        for mask in self._table:
            if mask < 0 or mask.bit_length() > n:
                raise InputError(f"closure table key {mask} is not a subset of {n} points")
        # distinct subset keys list all 2^n iff there are 2^n; a huge n fails before the shift
        count = len(self._table)
        if not 0 <= n < count.bit_length() or count != 1 << n:
            raise InputError(f"closure table lists {count} subsets, not the 2^{n} of {n} points")
        for mask in range(count):
            cl = self._table[mask]
            if cl & mask != mask:
                raise InputError("closure table not extensive")
            if self._table.get(cl) != cl:
                raise InputError("closure table not idempotent")
        for mask in range(count):
            for i in range(n):
                sup = mask | (1 << i)
                if self._table[mask] & self._table[sup] != self._table[mask]:
                    raise InputError("closure table not monotone")

    def closure_mask(self, mask: int) -> int:
        return self._table[mask]

    def enumerate_closed_masks(self) -> list[int]:
        return [m for m in range(1 << self.n) if self._table[m] == m]
