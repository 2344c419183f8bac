from fractions import Fraction as F

from relconvex import lp


def test_feasible_simple():
    # x + y = 1, x - y = 0  ->  x = y = 1/2
    assert lp.maximize([[1, 1], [1, -1]], [1, 0], [0, 0]).status == lp.OPTIMAL


def test_infeasible():
    # x + y = 1 and x + y = 2 cannot both hold
    assert lp.maximize([[1, 1], [1, 1]], [1, 2], [0, 0]).status == lp.INFEASIBLE


def test_negative_rhs_handled():
    # -x = -3 has the solution x = 3
    assert lp.maximize([[-1]], [-3], [0]).status == lp.OPTIMAL


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
