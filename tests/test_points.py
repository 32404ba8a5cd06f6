"""Group law and point utilities."""

import math
from fractions import Fraction

import pytest

from ellreg import points
from ellreg.errors import InfinityPoint, PointNotOnCurve
from ellreg.points import (
    add,
    map_point,
    multiply,
    naive_x_height,
    negate,
    on_curve,
    point,
    require_on_curve,
)
from ellreg.weierstrass import Transform, apply_transform, curve

E37 = curve((0, 0, 1, -1, 0))
P37 = point(0, 0)


def test_on_curve():
    assert on_curve(E37, P37)
    assert on_curve(E37, None)
    assert not on_curve(E37, point(2, 1))
    with pytest.raises(PointNotOnCurve):
        require_on_curve(E37, point(2, 1))


def test_doubling_chain_37():
    q2 = add(E37, P37, P37)
    assert (q2.x, q2.y) == (1, 0)
    q4 = add(E37, q2, q2)
    assert (q4.x, q4.y) == (2, -3)
    q8 = add(E37, q4, q4)
    assert q8.x == Fraction(21, 25)
    q16 = add(E37, q8, q8)
    assert q16.x == Fraction(480106, 4225)


def test_multiply_matches_repeated_add():
    acc = None
    for n in range(9):
        assert multiply(E37, n, P37) == acc
        acc = add(E37, acc, P37)


@pytest.mark.parametrize(
    "n, doublings, additions", [(1, 0, 0), (2, 1, 0), (3, 1, 1), (8, 3, 0), (13, 3, 2)]
)
def test_multiply_operation_counts(monkeypatch, n, doublings, additions):
    # bit_length(n) - 1 doublings and popcount(n) - 1 additions: no doubling
    # past the top bit and no addition to the identity
    calls = []

    def counted(c, p1, p2):
        calls.append(p1 == p2)
        return add(c, p1, p2)

    monkeypatch.setattr(points, "add", counted)
    acc = None
    for _ in range(n):
        acc = add(E37, acc, P37)
    assert multiply(E37, n, P37) == acc
    assert (calls.count(True), calls.count(False)) == (doublings, additions)


def test_mixed_addition():
    q2 = multiply(E37, 2, P37)
    q3 = add(E37, q2, P37)
    assert (q3.x, q3.y) == (-1, -1)
    assert on_curve(E37, q3)


def test_negation_and_identity():
    assert add(E37, P37, negate(E37, P37)) is None
    assert multiply(E37, 0, P37) is None
    assert multiply(E37, -3, P37) == negate(E37, multiply(E37, 3, P37))


def test_torsion_point_order_five():
    e11 = curve((0, -1, 1, -10, -20))
    t = point(5, 5)
    require_on_curve(e11, t)
    assert multiply(e11, 5, t) is None
    assert multiply(e11, 3, t) is not None


def test_closure_random_multiples():
    e = curve((0, 1, 1, -2, 0))
    p = point(0, 0)
    for n in range(1, 20):
        q = multiply(e, n, p)
        assert on_curve(e, q)


def test_naive_x_height():
    assert naive_x_height(point(0, 0)) == 0.0
    q8 = multiply(E37, 8, P37)
    assert math.isclose(naive_x_height(q8), math.log(25))
    with pytest.raises(InfinityPoint):
        naive_x_height(None)


def test_map_point_respects_group_law():
    tr = Transform(Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(2))
    e2 = apply_transform(E37, tr)
    p2 = map_point(tr, P37)
    assert on_curve(e2, p2)
    assert map_point(tr, multiply(E37, 5, P37)) == multiply(e2, 5, p2)
    assert map_point(tr, None) is None
