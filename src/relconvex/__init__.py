"""Exact rational toolkit for lattices of relatively convex sets.

Builds the finite lattice of subsets Y = hull(Y) ∩ X for point and
segment-union grounds X, decides lattice properties (join-semidistributivity,
anti-exchange, lower boundedness, biatomicity, diamond sublattices), and
constructs a machine-verified embedding of the lattice of top-containing
meet-closed subset families of a Boolean lattice into such a lattice of
relatively convex sets.  All geometry runs in exact rational arithmetic.
"""

from .analysis import (
    ClosureTable,
    Witness,
    check_anti_exchange,
    check_biatomic,
    check_distributive,
    check_jsd,
    check_lower_bounded,
    check_weak_atom_property,
    d_relation,
    find_m3,
)
from .boolsub import (
    OpenFaceSet,
    meet_closure,
    phi,
    psi,
    subm_lattice,
    verify_claim_join,
)
from .closure import FiniteGround
from .embedding import (
    build_construction,
    build_embedding,
    build_ground_set,
    epsilon_search,
    p_point,
    verify_lemmas,
)
from .errors import (
    ConstructionError,
    DimensionMismatch,
    InputError,
    ResourceLimitError,
    UnsupportedDimension,
)
from .geometry import (
    Face,
    MixedGenerators,
    Point,
    Segment,
    VPolytope,
    affine_span_dim,
    caratheodory_member,
    extreme_points,
    hull_member,
    qp,
    standard_simplex,
    strict_hull_member,
)
from .intervals import Interval
from .lattice import FiniteLattice
from .segments import (
    SegmentUnionGround,
    SubsegmentSet,
    check_condition_disjoint,
    check_condition_faces,
    face_restriction_check,
    sdv_spot_check,
    seg_closure,
    seg_join,
    seg_meet,
)

__version__ = "0.1.0"
