"""Finite lattices with numpy-backed order and operation tables.

Elements are indexed 0..n-1 with arbitrary hashable labels.  The order is a
boolean matrix ``leq`` with ``leq[i, j]`` meaning element i is below element
j.  Join and meet index tables are computed on demand; for lattices of closed
sets the tables come from bitmask arithmetic, for abstract lattices from a
least-upper-bound search that also validates lattice-ness.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError


class NotALatticeError(InputError):
    """The given order lacks a join or meet for some pair."""


class FiniteLattice:
    def __init__(self, labels: Sequence[Hashable], leq: np.ndarray, *,
                 _join: Optional[np.ndarray] = None,
                 _meet: Optional[np.ndarray] = None,
                 ground=None):
        self.labels = list(labels)
        self.n = len(self.labels)
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (self.n, self.n):
            raise InputError("leq matrix shape mismatch")
        self.leq = leq
        self.ground = ground
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.n:
            raise InputError("duplicate element labels")
        self._join = _join
        self._meet = _meet
        self._covers: Optional[np.ndarray] = None
        self._check_order()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_closed_masks(cls, masks: Sequence[int], ground=None) -> "FiniteLattice":
        """Lattice of a closure system: elements are bitmasks ordered by
        inclusion, meet is intersection, join is the least closed superset."""
        order = sorted(masks, key=lambda m: (bin(m).count("1"), m))
        if len(set(order)) != len(order):
            raise InputError("duplicate closed sets")
        if order and max(order).bit_length() > 63:
            raise ResourceLimitError("closed-set masks over more than 63 points "
                                     "do not fit the int64 lattice tables")
        E = np.array(order, dtype=np.int64)
        L = len(order)
        leq = (E[None, :] & E[:, None]) == E[:, None]
        val_order = np.argsort(E, kind="stable")
        sorted_vals = E[val_order]
        join = np.empty((L, L), dtype=np.int32)
        meet = np.empty((L, L), dtype=np.int32)
        for i in range(L):
            unions = E[i] | E
            sup = (E[None, :] & unions[:, None]) == unions[:, None]
            if not sup.any(axis=1).all():
                raise NotALatticeError("union without closed superset")
            join[i] = np.argmax(sup, axis=1)
            inter = E[i] & E
            pos = np.searchsorted(sorted_vals, inter)
            if (pos >= L).any() or (sorted_vals[np.minimum(pos, L - 1)] != inter).any():
                raise NotALatticeError("intersection of closed sets not closed")
            meet[i] = val_order[pos]
        return cls(order, leq, _join=join, _meet=meet, ground=ground)

    @classmethod
    def from_cover_pairs(cls, labels: Sequence[Hashable], covers: Sequence[tuple]) -> "FiniteLattice":
        """Build from a cover list (lower, upper); order is the reflexive
        transitive closure."""
        idx = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        leq = np.eye(n, dtype=bool)
        for lo, hi in covers:
            leq[idx[lo], idx[hi]] = True
        changed = True
        while changed:
            nxt = leq | ((leq.astype(np.float64) @ leq.astype(np.float64)) > 0)
            changed = bool((nxt != leq).any())
            leq = nxt
        return cls(labels, leq)

    @classmethod
    def chain(cls, k: int) -> "FiniteLattice":
        leq = np.triu(np.ones((k, k), dtype=bool))
        return cls(list(range(k)), leq)

    @classmethod
    def boolean(cls, k: int) -> "FiniteLattice":
        masks = list(range(1 << k))
        E = np.array(masks, dtype=np.int64)
        leq = (E[None, :] & E[:, None]) == E[:, None]
        return cls(masks, leq)

    @classmethod
    def m3(cls) -> "FiniteLattice":
        return cls.from_cover_pairs(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])

    @classmethod
    def n5(cls) -> "FiniteLattice":
        return cls.from_cover_pairs(
            ["0", "a", "c", "b", "1"],
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])

    # -- basic structure -------------------------------------------------------

    def _check_order(self):
        if not self.leq.diagonal().all():
            raise InputError("order not reflexive")
        if ((self.leq & self.leq.T) & ~np.eye(self.n, dtype=bool)).any():
            raise InputError("order not antisymmetric")
        reach = (self.leq.astype(np.float64) @ self.leq.astype(np.float64)) > 0
        if (reach & ~self.leq).any():
            raise InputError("order not transitive")

    def index(self, label) -> int:
        return self._index[label]

    def relabel(self, new_labels: Sequence[Hashable]) -> "FiniteLattice":
        """Replace element labels in place (same order); returns self."""
        if len(new_labels) != self.n:
            raise InputError("label count mismatch")
        self.labels = list(new_labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.n:
            raise InputError("duplicate element labels")
        return self

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    def bottom(self) -> int:
        rows = np.nonzero(self.leq.all(axis=1))[0]
        if len(rows) != 1:
            raise NotALatticeError("no unique bottom element")
        return int(rows[0])

    def top(self) -> int:
        cols = np.nonzero(self.leq.all(axis=0))[0]
        if len(cols) != 1:
            raise NotALatticeError("no unique top element")
        return int(cols[0])

    def _compute_tables(self):
        n = self.n
        order = np.argsort(self.leq.sum(axis=0), kind="stable")
        join = np.empty((n, n), dtype=np.int32)
        meet = np.empty((n, n), dtype=np.int32)
        geq = self.leq.T
        for i in range(n):
            ub = self.leq[i][None, :] & self.leq       # row j: upper bounds of {i, j}
            if not ub.any(axis=1).all():
                raise NotALatticeError("pair without upper bound")
            cand = order[np.argmax(ub[:, order], axis=1)]
            if (ub & ~self.leq[cand]).any():
                raise NotALatticeError("pair without least upper bound")
            join[i] = cand
            lb = geq[i][None, :] & geq
            if not lb.any(axis=1).all():
                raise NotALatticeError("pair without lower bound")
            cand = order[::-1][np.argmax(lb[:, order[::-1]], axis=1)]
            if (lb & ~geq[cand]).any():
                raise NotALatticeError("pair without greatest lower bound")
            meet[i] = cand
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

    def join(self, i: int, j: int) -> int:
        return int(self.join_table[i, j])

    def meet(self, i: int, j: int) -> int:
        return int(self.meet_table[i, j])

    def covers_matrix(self) -> np.ndarray:
        """covers[i, j] True iff j covers i."""
        if self._covers is None:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            through = (lt.astype(np.float64) @ lt.astype(np.float64)) > 0
            self._covers = lt & ~through
        return self._covers

    def cover_pairs(self) -> list[tuple[int, int]]:
        cm = self.covers_matrix()
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(cm))]

    def atoms(self) -> list[int]:
        cm = self.covers_matrix()
        return [int(j) for j in np.nonzero(cm[self.bottom()])[0]]

    def join_irreducibles(self) -> list[int]:
        cm = self.covers_matrix()
        lower_counts = cm.sum(axis=0)
        return [i for i in range(self.n) if lower_counts[i] == 1]

    def lower_cover_of(self, i: int) -> int:
        """The unique lower cover of a join-irreducible element."""
        cm = self.covers_matrix()
        lows = np.nonzero(cm[:, i])[0]
        if len(lows) != 1:
            raise InputError(f"element {i} is not join-irreducible")
        return int(lows[0])

    def __repr__(self):
        return f"FiniteLattice({self.n} elements)"
