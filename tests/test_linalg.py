"""The fraction-free kernel and the span coordinates read off it against the
Fraction Gauss-Jordan reference in oracles.py, and the reference's linear
solve against M x = b itself."""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from relconvex.linalg import rref, rref_int, span_coordinates

from oracles import rref_reference, solve_reference

entries = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Tall, wide and square matrices, with zero rows, zero columns and rows
    that are combinations of earlier rows (rank deficiency)."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combination"]))
        if kind == "zero":
            rows[i] = [F(0)] * ncols
        elif kind == "combination" and i > 0:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entries), draw(entries)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    if ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[c] = F(0)
    return rows


def times(m, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in m]


@st.composite
def systems(draw):
    """(M, rhs): rhs = M x for a drawn x (consistent), or drawn freely, which
    leaves a rank-deficient system inconsistent almost always."""
    m = draw(matrices())
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=len(m[0]), max_size=len(m[0])))
        rhs = times(m, x)
    else:
        rhs = draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    return m, rhs


def check_solution(m, rhs, sol):
    """``sol`` is None iff the augmented matrix has a pivot in its last
    column; otherwise it is a particular solution of M x = rhs that is zero
    on the free columns and one null vector of M per free column that is 1
    there and 0 on the other free columns.  Those conditions fix every
    value; the pivots come from the kernel, not from the reference."""
    ncols = len(m[0])
    _, aug_pivots = rref([row + [b] for row, b in zip(m, rhs)])
    if ncols in aug_pivots:
        assert sol is None
        return
    assert sol is not None
    part, basis = sol
    free = [c for c in range(ncols) if c not in rref(m)[1]]
    assert times(m, part) == rhs
    assert all(part[c] == 0 for c in free)
    assert len(basis) == len(free)
    for f, vec in zip(free, basis):
        assert times(m, vec) == [0] * len(m)
        assert [vec[c] for c in free] == [int(c == f) for c in free]


@settings(deadline=None)
@given(matrices())
def test_rref_and_rank_match_reference(m):
    assert rref(m) == rref_reference(m)


@settings(deadline=None)
@given(matrices())
def test_kernel_pivots_equal_det_and_rows_divide_to_rref(m):
    scaled = [[v.numerator * (lcm(*(w.denominator for w in row)) // v.denominator)
               for v in row] for row in m]
    rows, pivots, det = rref_int(scaled)
    assert all(rows[r][c] == det for r, c in enumerate(pivots))
    assert [[F(v, det) for v in row] for row in rows] == rref_reference(scaled)[0]


@settings(deadline=None)
@given(systems())
def test_solve_matches_reference(system):
    m, rhs = system
    check_solution(m, rhs, solve_reference(m, rhs))


@settings(deadline=None)
@given(matrices())
def test_nullspace_matches_reference(m):
    zero = [F(0)] * len(m)
    check_solution(m, zero, solve_reference(m, zero))


@st.composite
def spans(draw):
    """(basis, queries): integer columns of one height, the basis sometimes
    dependent (a repeated or combined column, or more columns than rows), a
    query either a combination of the basis columns or drawn freely, which
    puts it off a basis of lower rank almost always."""
    height = draw(st.integers(1, 5))
    column = st.lists(st.integers(-6, 6), min_size=height, max_size=height)
    basis = draw(st.lists(column, min_size=1, max_size=height + 1))
    if draw(st.booleans()):
        a, b = draw(st.integers(0, len(basis) - 1)), draw(st.integers(0, len(basis) - 1))
        basis.append([2 * x - y for x, y in zip(basis[a], basis[b])])
    queries = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            coef = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
            queries.append([sum(c * col[r] for c, col in zip(coef, basis)) for r in range(height)])
        else:
            queries.append(draw(column))
    return basis, queries


@settings(deadline=None)
@given(spans())
def test_span_coordinates_match_reference(case):
    basis, queries = case
    got = span_coordinates(basis, queries)
    m = [[F(v) for v in row] for row in zip(*basis)]
    if len(rref_reference(m)[1]) < len(basis):
        assert got is None
        return
    assert len(got) == len(queries)
    factors = set()
    for q, coords in zip(queries, got):
        sol = solve_reference(m, [F(v) for v in q])
        if sol is None:
            assert coords is None
            continue
        part, null = sol
        assert null == [] and all(type(c) is int for c in coords)
        # the same zeros, and one positive factor over every query
        assert [c == 0 for c in coords] == [x == 0 for x in part]
        factors.update(F(c) / x for c, x in zip(coords, part) if x)
    assert len(factors) <= 1 and all(f > 0 for f in factors)


def test_span_coordinates_edge_cases():
    # a dependent basis, with and without queries
    assert span_coordinates([[1, 2], [2, 4]], [[1, 2]]) is None
    assert span_coordinates([[1, 2], [2, 4]], []) is None
    # an empty query list, and a query off the span
    assert span_coordinates([[1, 0, 0]], []) == []
    assert span_coordinates([[1, 0, 0]], [[0, 1, 0], [3, 0, 0]]) == [None, [3]]
    # a negative det: the coordinates keep their true signs
    assert rref_int([[-1, 2, -3]])[2] == -1
    assert span_coordinates([[-1]], [[2], [-3]]) == [[-2], [3]]
    # (2, 3) = 1 * (2, 0) - 1 * (0, -3), scaled by |det| = 6
    assert rref_int([[2, 0, 2], [0, -3, 3]])[2] == -6
    assert span_coordinates([[2, 0], [0, -3]], [[2, 3]]) == [[6, -6]]


def test_empty_shapes():
    assert rref([]) == rref_reference([]) == ([], [])
    assert rref([[]]) == rref_reference([[]]) == ([[]], [])
    assert rref_int([]) == ([], [], 1)
    assert solve_reference([], []) == ([], [])
