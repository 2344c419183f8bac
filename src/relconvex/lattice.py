"""Finite lattices with numpy-backed order and operation tables.

Elements are indexed 0..n-1 with arbitrary hashable labels.  The order is a
boolean matrix ``leq`` with ``leq[i, j]`` meaning element i is below element
j.  Joins are computed by one search: in a linear extension the join of i
and j is their first common upper bound, found as the lowest set bit of the
AND of their bit-packed up-sets.  Meets of an abstract lattice come from the
same search on the reversed dual order; a closure system looks its meets up
as intersections among its sorted closed sets.  Both validate lattice-ness.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError


# Every lattice keeps n x n tables, so it has at most 2^12 elements (every
# ground of <= 12 points).  On a 2-vCPU Xeon VM a 12-point convex ground's
# tables took 7.7-7.9 s and 588 MB peak RSS, an 11-point one's 1.2 s, 174 MB.
MAX_ELEMENTS = 1 << 12


class NotALatticeError(InputError):
    """The given order lacks a join or meet for some pair."""


class FiniteLattice:
    """Built by ``from_cover_pairs`` or ``from_closed_masks`` only."""

    def _setup(self, labels: Sequence[Hashable], leq: np.ndarray):
        self.labels = list(labels)
        self.n = len(self.labels)
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (self.n, self.n):
            raise InputError("leq matrix shape mismatch")
        self.leq = leq
        if not self.n:
            raise NotALatticeError("lattice without elements")
        if len(set(self.labels)) != self.n:
            raise InputError("duplicate element labels")
        self._join = self._meet = self._covers = None    # computed on demand

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_closed_masks(cls, masks: Sequence[int]) -> "FiniteLattice":
        """Lattice of a closure system: elements are bitmasks ordered by
        inclusion, meet is intersection, join is the least closed superset.
        Inclusion of distinct masks is a partial order, so it is not checked."""
        order = sorted(masks, key=lambda m: (bin(m).count("1"), m))
        if len(set(order)) != len(order):
            raise InputError("duplicate closed sets")
        if order and max(order).bit_length() > 63:
            raise ResourceLimitError("closed-set masks over more than 63 points "
                                     "do not fit the int64 lattice tables")
        E = np.array(order, dtype=np.int64)
        lat = cls.__new__(cls)
        lat._setup(order, (E[None, :] & E[:, None]) == E[:, None])
        by_value = np.argsort(E, kind="stable")    # as in _compute_tables: one sort in memory
        values = E[by_value]
        meet = np.empty((lat.n, lat.n), dtype=np.int32)
        step = max(1, _BLOCK_BYTES // (8 * lat.n + 1))
        for s in range(0, lat.n, step):
            common = E[s:s + step, None] & E
            at = np.searchsorted(values, common)    # < n, as a & b <= max(a, b)
            if (values[at] != common).any():
                lat._compute_tables()   # an order fault keeps its own message
                raise NotALatticeError("intersection of closed sets not closed")
            meet[s:s + step] = by_value[at]
        del common, at      # the last block's, not to be held through the join search
        lat._compute_tables(meet)
        return lat

    @classmethod
    def from_cover_pairs(cls, labels: Sequence[Hashable], covers: Sequence[tuple]) -> "FiniteLattice":
        """Build from a cover list (lower, upper); order is the reflexive
        transitive closure.  Each element's up-set is a bitset, its own bit
        OR the up-sets of its upper covers, filled in one pass in reverse
        topological order.  That is reflexive and transitive by construction,
        and antisymmetric once every element is done, as only a cover cycle
        (or what lies below one) stays undone; so no axiom is rechecked."""
        if len(labels) > MAX_ELEMENTS:
            raise ResourceLimitError(f"{len(labels)} lattice elements exceed {MAX_ELEMENTS}")
        idx = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        lowers: list[list[int]] = [[] for _ in range(n)]
        pending = [0] * n       # upper covers not yet done
        for lo, hi in covers:
            i, j = idx[lo], idx[hi]
            if i != j:          # a self-loop adds nothing to a reflexive order
                lowers[j].append(i)
                pending[i] += 1
        done = [i for i in range(n) if not pending[i]]
        up = [1 << i for i in range(n)]
        for j in done:          # grows as each element's last upper cover is done
            for i in lowers[j]:
                up[i] |= up[j]
                pending[i] -= 1
                if not pending[i]:
                    done.append(i)
        width = -(-n // 8)
        rows = np.frombuffer(b"".join(u.to_bytes(width, "little") for u in up), dtype=np.uint8)
        lat = cls.__new__(cls)
        lat._setup(labels, np.unpackbits(rows.reshape(n, width), axis=1, count=n,
                                         bitorder="little"))
        if len(done) < n:       # what is left lies on or below a cover cycle
            raise InputError("order not antisymmetric")
        return lat

    # -- basic structure -------------------------------------------------------

    def bottom(self) -> int:
        rows = np.nonzero(self.leq.all(axis=1))[0]
        if len(rows) != 1:
            raise NotALatticeError("no unique bottom element")
        return int(rows[0])

    def _compute_tables(self, meet=None):
        # Sorting by down-set size gives a linear extension; its reverse is
        # one of the dual order, in which meets are joins.  A closure system
        # passes its meet table, read off the intersections.
        order = np.argsort(self.leq.sum(axis=0), kind="stable")
        join, join_fault = _least_bounds(self.leq, order, "pair without upper bound",
                                         "pair without least upper bound")
        meet, meet_fault = (meet, None) if meet is not None else _least_bounds(
            self.leq.T, order[::-1], "pair without lower bound", "pair without greatest lower bound")
        fault = min(filter(None, (join_fault, meet_fault)), key=lambda f: f[0], default=None)
        if fault:       # the lowest faulty row, its joins before its meets
            raise NotALatticeError(fault[1])
        self._join, self._meet = join, meet

    @property
    def join_table(self) -> np.ndarray:
        if self._join is None:
            self._compute_tables()
        return self._join

    @property
    def meet_table(self) -> np.ndarray:
        if self._meet is None:
            self._compute_tables()
        return self._meet

    def covers_matrix(self) -> np.ndarray:
        """covers[i, j] True iff j covers i."""
        if self._covers is None:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            through = (lt.astype(np.float64) @ lt.astype(np.float64)) > 0
            self._covers = lt & ~through
        return self._covers

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.covers_matrix()))]

    def atoms(self) -> list[int]:
        return [int(j) for j in np.nonzero(self.covers_matrix()[self.bottom()])[0]]

    def join_irreducibles(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.covers_matrix().sum(axis=0) == 1)[0]]

    def __repr__(self):
        return f"FiniteLattice({self.n} elements)"


# Bytes of packed common upper bounds (or of masks) per row block; the
# per-pair temporaries add a few times as much, so keep blocks small.
_BLOCK_BYTES = 1 << 18


def _least_bounds(above: np.ndarray, order: np.ndarray, no_bound: str, no_least: str):
    """(table, None), table[i, j] the least common upper bound of i and j
    (``above[i, j]``: i <= j), or (None, (i, reason)) for the lowest row i
    lacking one.  With up-sets packed in the linear extension ``order``, the
    candidate is the lowest set bit of ``up[i] & up[j]``; it is least iff
    its own up-set, which lies inside that AND, has the same size."""
    n = len(order)
    packed = np.packbits(above[:, order], axis=1, bitorder="little")
    up = np.zeros((n, -(-n // 64)), dtype="<u8")
    up.view(np.uint8)[:, :packed.shape[1]] = packed
    up_size = above.sum(axis=1)
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK_BYTES // (up.nbytes + 1))
    for s in range(0, n, step):
        common = up[s:s + step, None, :] & up[None, :, :]
        word = (common != 0).argmax(axis=2)
        low = np.take_along_axis(common, word[..., None], axis=2)[..., 0]
        least = order[64 * word + np.frexp((low & (~low + np.uint64(1))).astype(float))[1] - 1]
        size = np.bitwise_count(common).sum(axis=2)
        bad = (size != up_size[least]).any(axis=1)
        if bad.any():
            row = int(bad.argmax())
            return None, (s + row, no_bound if (size[row] == 0).any() else no_least)
        table[s:s + step] = least
    return table, None
