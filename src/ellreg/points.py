"""Rational points on Weierstrass models: group law and naive heights."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfinityPoint, PointNotOnCurve
from .primes import log_int


@dataclass(frozen=True)
class RationalPoint:
    """An affine rational point (x, y); the identity is represented by None."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))


def point(x, y):
    return RationalPoint(Fraction(x), Fraction(y))


def on_curve(c, pt):
    """Whether pt satisfies the model equation (the identity always does)."""
    if pt is None:
        return True
    x, y = pt.x, pt.y
    lhs = y * y + c.a1 * x * y + c.a3 * y
    rhs = x ** 3 + c.a2 * x * x + c.a4 * x + c.a6
    return lhs == rhs


def require_on_curve(c, pt):
    if not on_curve(c, pt):
        raise PointNotOnCurve(f"({pt.x}, {pt.y}) does not satisfy the model equation")


def negate(c, pt):
    if pt is None:
        return None
    return RationalPoint(pt.x, -pt.y - c.a1 * pt.x - c.a3)


def add(c, p1, p2):
    """Group law on the model c (identity encoded as None)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    if x1 == x2:
        if y1 + y2 + c.a1 * x2 + c.a3 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * c.a2 * x1 + c.a4 - c.a1 * y1) / (
            2 * y1 + c.a1 * x1 + c.a3
        )
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + c.a1 * lam - c.a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1 - c.a1 * x3 - c.a3
    return RationalPoint(x3, y3)


def multiply(c, n, pt):
    """n * pt (n may be negative or zero) by left-to-right double-and-add:
    bit_length(n) - 1 doublings and popcount(n) - 1 additions for n > 0."""
    if n < 0:
        return multiply(c, -n, negate(c, pt))
    if n == 0:
        return None
    acc = pt
    for bit in bin(n)[3:]:
        acc = add(c, acc, acc)
        if bit == "1":
            acc = add(c, acc, pt)
    return acc


def naive_x_height(pt):
    """log max(|num x|, den x); raises InfinityPoint for the identity."""
    if pt is None:
        raise InfinityPoint("the identity has no affine x-coordinate")
    num, den = pt.x.numerator, pt.x.denominator
    return log_int(max(abs(num), den))


def map_point(tr, pt):
    """Image of pt under the coordinate change tr (identity maps to itself)."""
    if pt is None:
        return None
    nx = (pt.x - tr.r) / tr.u ** 2
    ny = (pt.y - tr.s * (pt.x - tr.r) - tr.t) / tr.u ** 3
    return RationalPoint(nx, ny)
