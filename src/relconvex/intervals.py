"""Rational parameter intervals with independent endpoint openness.

Used to describe subsets of a parametrized segment: a piece of a carrier
segment is an interval [lo, hi] of the parameter with each endpoint either
included or excluded.  Degenerate intervals (lo == hi, both ends closed)
represent single points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("empty interval: lo > hi")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise InputError("degenerate interval must be closed on both ends")

    @staticmethod
    def point(v: Fraction) -> "Interval":
        return Interval(v, v, True, True)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        if self.lo > other.lo:
            lo, lo_c = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lo_c = other.lo, other.lo_closed
        else:
            lo, lo_c = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_c = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hi_c = other.hi, other.hi_closed
        else:
            hi, hi_c = self.hi, self.hi_closed and other.hi_closed
        if lo > hi or (lo == hi and not (lo_c and hi_c)):
            return None
        return Interval(lo, hi, lo_c, hi_c)


def union_intervals(items: Iterable[Interval]) -> tuple[Interval, ...]:
    """Canonical form of a union: sorted, disjoint, non-adjacent intervals."""
    ivs = sorted(items, key=lambda i: (i.lo, not i.lo_closed, i.hi, i.hi_closed))
    out: list[Interval] = []
    for iv in ivs:
        if not out:
            out.append(iv)
            continue
        cur = out[-1]
        touches = iv.lo < cur.hi or (iv.lo == cur.hi and (iv.lo_closed or cur.hi_closed))
        if touches:
            if iv.hi > cur.hi:
                hi, hi_c = iv.hi, iv.hi_closed
            elif iv.hi == cur.hi:
                hi, hi_c = cur.hi, cur.hi_closed or iv.hi_closed
            else:
                hi, hi_c = cur.hi, cur.hi_closed
            out[-1] = Interval(cur.lo, hi, cur.lo_closed, hi_c)
        else:
            out.append(iv)
    return tuple(out)


def intersect_unions(a: Iterable[Interval], b: Iterable[Interval]) -> tuple[Interval, ...]:
    pieces = []
    for x in a:
        for y in b:
            z = x.intersect(y)
            if z is not None:
                pieces.append(z)
    return union_intervals(pieces)
