from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from oracles import maximize_reference
from relconvex import lp
from relconvex.geometry import MixedGenerators, Segment, qp, strict_hull_member


def test_feasible_simple():
    # x + y = 1, x - y = 0  ->  x = y = 1/2
    res = lp.maximize([[1, 1], [1, -1]], [1, 0], [0, 0])
    assert res.status == lp.OPTIMAL
    assert res.x == [F(1, 2), F(1, 2)]


def test_infeasible():
    # x + y = 1 and x + y = 2 cannot both hold
    assert lp.maximize([[1, 1], [1, 1]], [1, 2], [0, 0]).status == lp.INFEASIBLE


def test_negative_rhs_handled():
    # -x = -3 has the solution x = 3
    res = lp.maximize([[-1]], [-3], [0])
    assert res.status == lp.OPTIMAL
    assert res.x == [3]


def test_maximize_bounded():
    # max x + y  s.t. x + y + s = 1
    res = lp.maximize([[1, 1, 1]], [1], [1, 1, 0])
    assert res.status == lp.OPTIMAL
    assert res.objective == 1


def test_maximize_exact_fractions():
    # max y  s.t.  y - x = 0, x + y + s = 1/3  ->  y = 1/6
    res = lp.maximize([[-1, 1, 0], [1, 1, 1]], [0, F(1, 3)], [0, 1, 0])
    assert res.status == lp.OPTIMAL
    assert res.objective == F(1, 6)


def test_unbounded():
    res = lp.maximize([[1, -1]], [0], [1, 0])
    assert res.status == lp.UNBOUNDED


def test_infeasible_maximize():
    res = lp.maximize([[1], [1]], [1, 2], [1])
    assert res.status == lp.INFEASIBLE


def test_redundant_rows():
    # duplicated constraint leaves an artificial variable on a zero row
    res = lp.maximize([[1, 1], [1, 1], [1, -1]], [1, 1, 0], [1, 0])
    assert res.status == lp.OPTIMAL
    assert res.x == [F(1, 2), F(1, 2)]


def test_degenerate_no_cycling():
    # heavily degenerate: many ways to write the origin
    A = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]]
    b = [0, 0, 0]
    res = lp.maximize(A, b, [1, 1, 1, 1])
    assert res.status == lp.OPTIMAL
    assert res.objective == 0


def test_ragged_row_rejected():
    with pytest.raises(ValueError, match="row length"):
        lp.maximize([[1, 1], [1]], [1, 1], [0, 0])


def test_short_rhs_rejected():
    with pytest.raises(ValueError, match="rhs length"):
        lp.maximize([[1, 1], [1, -1]], [1], [0, 0])


# ---------------------------------------------------------------------------
# the integer simplex against the Fraction simplex in oracles.py: same
# status, x, objective and number of pivots


entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def programs(draw):
    """(A, b, c) with m = 0..5 rows and n = 0..6 columns.  Rows may repeat
    or combine earlier rows (redundant, or inconsistent when b is drawn
    freely); b is A x for a drawn x >= 0 with zeros (feasible, degenerate)
    or drawn freely (often infeasible, with negative entries)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    A = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(["keep", "keep", "copy", "combination"]))
        if kind != "keep":
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = (1, 0) if kind == "copy" else (draw(entries), draw(entries))
            A[i] = [s * x + t * y for x, y in zip(A[j], A[k])]
    if draw(st.booleans()):
        x = draw(st.lists(st.one_of(st.just(F(0)), entries.map(abs)), min_size=n, max_size=n))
        b = [sum((a * v for a, v in zip(row, x)), F(0)) for row in A]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return A, b, draw(st.lists(entries, min_size=n, max_size=n))


@pytest.fixture
def pivots(monkeypatch):
    """Counts of the pivots each solver takes, by wrapping both _pivot."""
    counts = {lp.__name__: 0, oracles.__name__: 0}
    for module in (lp, oracles):
        def counted(*args, _inner=module._pivot, _key=module.__name__):
            counts[_key] += 1
            return _inner(*args)
        monkeypatch.setattr(module, "_pivot", counted)
    return counts


def assert_same_as_reference(A, b, c, pivots) -> str:
    pivots.update({lp.__name__: 0, oracles.__name__: 0})
    got, want = lp.maximize(A, b, c), maximize_reference(A, b, c)
    assert (got.status, got.x, got.objective) == (want.status, want.x, want.objective)
    assert pivots[lp.__name__] == pivots[oracles.__name__]
    return got.status


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(programs())
def test_maximize_matches_fraction_reference(pivots, program):
    assert_same_as_reference(*program, pivots)


def test_fixed_programs_match_fraction_reference(pivots):
    # every status, m = 0, a negative drive-out pivot and unequal row scales
    cases = [
        ([], [], []),
        ([], [], [1, 0]),
        ([[1, 1], [1, 1]], [1, 2], [0, 0]),
        ([[1, -1]], [0], [1, 0]),
        ([[1, 1], [1, 1], [1, -1]], [1, 1, 0], [1, 0]),
        ([[-1, 1], [1, -1]], [0, 0], [1, 1]),
        ([[F(1, 3), F(1, 2), 1], [F(1, 7), 0, 1]], [F(1, 5), F(1, 11)], [0, 0, F(1, 10**9)]),
    ]
    statuses = {assert_same_as_reference(A, b, c, pivots) for A, b, c in cases}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_cevian_grid_programs_match_fraction_reference(pivots, monkeypatch):
    # every LP behind strict_hull_member on the 81-point grid of
    # test_cross_validation's dense witness scan of the cevian configuration
    base = Segment(qp(-1, 0), qp(1, 0))
    cevian = Segment(qp("-1/4", "1/2"), qp(0, 2), False, False)
    gens = MixedGenerators(segments=(base, cevian))
    programs_seen = []
    solve = lp.maximize

    def recorded(A, b, c):
        programs_seen.append(([list(row) for row in A], list(b), list(c)))
        return solve(A, b, c)

    monkeypatch.setattr(lp, "maximize", recorded)
    for i in range(-4, 5):
        for j in range(9):
            strict_hull_member((F(i, 4), F(j, 4)), gens)
    monkeypatch.setattr(lp, "maximize", solve)
    assert len(programs_seen) >= 81
    statuses = {assert_same_as_reference(A, b, c, pivots) for A, b, c in programs_seen}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}
