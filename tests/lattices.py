"""Small fixture lattices and grounds that the tests build by name.  They
live here, not in the package, because nothing in the package calls them."""

from fractions import Fraction
from typing import Sequence

from relconvex.closure import FiniteGround
from relconvex.lattice import FiniteLattice


def chain(k: int) -> FiniteLattice:
    return FiniteLattice.from_cover_pairs(list(range(k)), [(i, i + 1) for i in range(k - 1)])


def boolean(k: int) -> FiniteLattice:
    """Element i is the subset with mask i."""
    return FiniteLattice.from_cover_pairs(
        list(range(1 << k)), [(m, m | 1 << b) for m in range(1 << k) for b in range(k)
                              if not m >> b & 1])


def m3() -> FiniteLattice:
    return FiniteLattice.from_cover_pairs(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])


def n5() -> FiniteLattice:
    return FiniteLattice.from_cover_pairs(
        ["0", "a", "c", "b", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])


def collinear_ground(values: Sequence, dim: int = 1) -> FiniteGround:
    """Ground of collinear points at the given 1-D coordinates."""
    return FiniteGround([(Fraction(v),) + (Fraction(0),) * (dim - 1) for v in values])
