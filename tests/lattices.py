"""Small fixture lattices and grounds that the tests build by name.  They
live here, not in the package, because nothing in the package calls them."""

from fractions import Fraction
from typing import Sequence

import numpy as np

from relconvex.closure import FiniteGround
from relconvex.lattice import FiniteLattice


def chain(k: int) -> FiniteLattice:
    return FiniteLattice(list(range(k)), np.triu(np.ones((k, k), dtype=bool)))


def boolean(k: int) -> FiniteLattice:
    E = np.arange(1 << k)
    return FiniteLattice(E.tolist(), (E[None, :] & E[:, None]) == E[:, None])


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
