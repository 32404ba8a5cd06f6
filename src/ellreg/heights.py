"""Canonical heights with certified error, pairings, torsion, Gram matrices.

The height of a point is computed as follows: map to the global minimal
model, which has integer coefficients, and decide there whether the point is
torsion.  By the generalized Nagell-Lutz theorem (Silverman, AEC, Thm VIII.7.1)
a torsion point on an integral Weierstrass equation has 4x and 8y integral, and
so has each of its multiples; the first multiple whose x-denominator does not
divide 4 proves infinite order, so a point of large height is settled before
any multiple is formed.  A torsion point has height exactly zero.  Any other
point Q is evaluated in one pass, in the quadratic-form normalization,

    h_hat(Q) = (h_std(Q) + sum_p r_p(Q) log p) / 2,
    h_std(Q) = h(x(Q)) + sum_{n>=0} 4^{-(n+1)} F(x_n),
    F(x) = log max(|phi(x)|, |delta(x)|) - 4 log max(|x|, 1),

where x_{n+1} = phi(x_n)/delta(x_n) is the x-coordinate duplication map.  The
series counts each duplication fraction as if in lowest terms, which fails
only at the bad primes p where Q reduces to the singular point; r_p(Q) is the
closed form of Silverman, "Computing heights on elliptic curves", Math. Comp. 51
(1988), Thm 5.2, for what is lost there.  The only error is the series tail,
bounded by sup|F| * 4^{-N} / 3 with sup|F| certified from exact Bezout
cofactors of (phi, delta), plus float rounding.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp
import numpy as np

from .errors import DegenerateLattice
from .points import RationalPoint, add, map_point, require_on_curve
from .primes import is_prime, square_divisors, valuation
from .weierstrass import invert_transform

DEFAULT_PRECISION = 128  # minimum working bits of the height series


@dataclass(frozen=True)
class HeightValue:
    """A real number with a certified absolute error bound."""

    value: float
    err: float

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error bound must be nonnegative")


@dataclass(frozen=True)
class TorsionInfo:
    """Order, cyclic structure, and affine points of the torsion subgroup."""

    order: int
    invariants: tuple
    points: tuple


@dataclass(frozen=True)
class GramLattice:
    """Symmetric positive-definite Gram matrix with per-entry error bounds.

    Positive definiteness is certified at construction: the smallest
    eigenvalue of the value matrix must exceed the operator bound of the
    error matrix, otherwise DegenerateLattice is raised.
    """

    values: tuple
    errs: tuple

    def __post_init__(self):
        vals = tuple(tuple(float(x) for x in row) for row in self.values)
        errs = tuple(tuple(float(x) for x in row) for row in self.errs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "errs", errs)
        m = len(vals)
        for mat, name in ((vals, "values"), (errs, "errs")):
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValueError(f"{name} is not a square matrix of rank {m}")
        if any(x < 0 for row in errs for x in row):
            raise ValueError("error bounds must be nonnegative")
        for i in range(m):
            for j in range(i):
                if vals[i][j] != vals[j][i]:
                    raise ValueError("Gram matrix must be exactly symmetric")
        if m == 0:
            return
        ev = np.linalg.eigvalsh(np.array(vals))
        err_norm = max(sum(row) for row in errs)
        if ev[0] <= err_norm:
            raise DegenerateLattice(
                f"cannot certify positive definiteness: min eigenvalue {ev[0]:.3e}"
                f" vs accumulated error {err_norm:.3e}"
            )

    @property
    def m(self):
        return len(self.values)

    def value_matrix(self):
        return np.array(self.values, dtype=float).reshape(self.m, self.m)

    def err_matrix(self):
        return np.array(self.errs, dtype=float).reshape(self.m, self.m)

    def exact(self, i, j):
        """The (i, j) entry as the exact rational the float denotes."""
        return Fraction(self.values[i][j])

    @cached_property
    def reduced(self):
        """(LLL-reduced GramLattice, unimodular U) as lattice.lll_reduce,
        computed once per lattice object."""
        from .lattice import lll_reduce  # lattice imports this module

        return lll_reduce(self)


def gram_from_matrix(values, errs=None):
    """Build a GramLattice from nested lists; errors default to zero."""
    vals = tuple(tuple(float(x) for x in row) for row in values)
    if errs is None:
        errs = tuple(tuple(0.0 for _ in row) for row in vals)
    return GramLattice(vals, tuple(tuple(float(x) for x in row) for row in errs))


def _torsion_multiple(cmin, pt, max_n=16):
    """The order of pt if it is <= max_n, else None.

    cmin must have integer coefficients: a multiple of pt whose
    x-denominator does not divide 4 is not torsion (generalized Nagell-Lutz),
    so neither is pt, and the search stops there.
    """
    acc = pt
    for n in range(1, max_n + 1):
        if acc is None:
            return n
        if 4 % acc.x.denominator:
            return None
        acc = add(cmin, acc, pt)
    return None


def _series_height(cmin, pt, tail_budget, precision):
    """h_std of a point of infinite order on the minimal model, without the
    local terms r_p, and its error.

    The working precision is what the error budget needs, and at least
    `precision` bits.
    """
    f_sup = cmin.f_sup
    n_terms = max(8, int(math.ceil(math.log(f_sup / (3 * tail_budget), 4))) + 1)
    prec = 64 + 7 * n_terms + max(0, int(-math.log2(tail_budget)) + 16)
    prec = max(prec, precision)
    b2, b4, b6, b8 = (int(cmin.b2), int(cmin.b4), int(cmin.b6), int(cmin.b8))
    num, den = pt.x.numerator, pt.x.denominator
    with mp.workprec(prec):
        acc = mp.log(max(abs(num), den))
        x = mp.mpf(num) / den
        weight = mp.mpf(1) / 4
        for _ in range(n_terms):
            xx = x * x
            phi = xx * xx - b4 * xx - 2 * b6 * x - b8
            dlt = ((4 * x + b2) * x + 2 * b4) * x + b6
            big = max(abs(phi), abs(dlt))
            low = max(abs(x), mp.mpf(1))
            acc += weight * (mp.log(big) - 4 * mp.log(low))
            weight /= 4
            x = phi / dlt
        value = float(acc)
    tail = f_sup * 4.0 ** (-n_terms) / 3
    rounding = math.ldexp(max(1.0, abs(value)), -(prec - 64))
    return value, tail + rounding


def _ord(q, p):
    """p-adic valuation of the rational q (infinite for 0)."""
    if q == 0:
        return math.inf
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def _local_terms(cmin, pt):
    """(sum_p r_p log p, a bound on its float rounding) for a point of
    infinite order on the minimal model.  By Silverman's Thm 5.2, r_p = 0
    unless A = ord_p(3x^2 + 2 a2 x + a4 - a1 y) and B = ord_p(psi_2) are
    positive; then r_p = -k (N - k) / N, k = min(B, N/2), N = ord_p(disc),
    for multiplicative reduction, else -2B/3 if C = ord_p(psi_3) >= 3B,
    else -C/4.  B and C are finite since pt is not 2- or 3-torsion.
    """
    x, y = pt.x, pt.y
    slope_num = 3 * x * x + 2 * cmin.a2 * x + cmin.a4 - cmin.a1 * y
    psi2 = 2 * y + cmin.a1 * x + cmin.a3
    psi3 = (((3 * x + cmin.b2) * x + 3 * cmin.b4) * x + 3 * cmin.b6) * x + cmin.b8
    total = size = 0.0
    for red in cmin.reductions:
        p, n = red.p, red.v_disc
        b = _ord(psi2, p)
        if _ord(slope_num, p) <= 0 or b <= 0:
            continue
        if red.split is not None:
            k = min(b, Fraction(n, 2))
            r = -k * (n - k) / n
        else:
            c = _ord(psi3, p)
            r = Fraction(-2 * b, 3) if c >= 3 * b else Fraction(-c, 4)
        term = float(r) * math.log(p)
        total += term
        size += abs(term)
    return total, math.ldexp(size, -50)


def _minimal_height(cmin, q0, target_err, precision):
    """Canonical height of q0 on the minimal model cmin; None if q0 is torsion."""
    if q0 is None or _torsion_multiple(cmin, q0) is not None:
        return None
    std, std_err = _series_height(cmin, q0, target_err, precision)
    local, local_err = _local_terms(cmin, q0)
    value = (std + local) / 2
    err = (std_err + local_err) / 2 + math.ldexp(max(1.0, abs(value)), -50)
    return HeightValue(value, err)


def canonical_height(c, pt, target_err=1e-12, precision=DEFAULT_PRECISION):
    """Quadratic-form canonical height of pt, certified within target_err.

    Torsion points return exactly zero.  Torsion is decided on the integral
    minimal model: a multiple of pt whose x-denominator does not divide 4
    proves infinite order (generalized Nagell-Lutz, Silverman, AEC,
    Thm VIII.7.1), otherwise up to 16 multiples are formed, which covers
    every torsion order over Q (Mazur).  Any other point needs no multiple:
    the series plus Silverman's closed-form local terms (Math. Comp. 51
    (1988), Thm 5.2) give half the doubling limit lim 4^{-n} h(x(2^n P)),
    the normalization with the leading factor 1/2.  `precision` is the
    minimum working precision in bits of the height series.
    """
    require_on_curve(c, pt)
    cmin, tr = c.minimal
    h = _minimal_height(cmin, map_point(tr, pt), target_err, precision)
    return HeightValue(0.0, 0.0) if h is None else h


def pairing(c, p1, p2, target_err=1e-12, precision=DEFAULT_PRECISION):
    """Height pairing <P, Q> = (h(P+Q) - h(P) - h(Q)) / 2."""
    require_on_curve(c, p1)
    require_on_curve(c, p2)
    per = target_err / 2
    hs = canonical_height(c, add(c, p1, p2), per, precision)
    h1 = canonical_height(c, p1, per, precision)
    h2 = canonical_height(c, p2, per, precision)
    value = (hs.value - h1.value - h2.value) / 2
    err = (hs.err + h1.err + h2.err) / 2 + math.ldexp(max(1.0, abs(value)), -50)
    return HeightValue(value, err)


def gram_matrix(c, gens, target_err=1e-12, precision=DEFAULT_PRECISION):
    """GramLattice of height pairings of the given generators.

    The generators are trusted to be a basis of the free part; a torsion
    generator raises DegenerateLattice, and a determinant below 1e-6
    triggers a warning about possible dependence.
    """
    gens = list(gens)
    cmin, tr = c.minimal
    per = target_err / 2
    qs, heights = [], []
    for i, g in enumerate(gens):
        require_on_curve(c, g)
        q = map_point(tr, g)
        h = _minimal_height(cmin, q, per, precision)
        if h is None:
            raise DegenerateLattice(f"generator {i} is a torsion point")
        qs.append(q)
        heights.append(h)
    m = len(gens)
    vals = [[0.0] * m for _ in range(m)]
    errs = [[0.0] * m for _ in range(m)]
    for i in range(m):
        vals[i][i] = heights[i].value
        errs[i][i] = heights[i].err
        for j in range(i + 1, m):
            hsum = _minimal_height(cmin, add(cmin, qs[i], qs[j]), per, precision)
            if hsum is None:
                hsum = HeightValue(0.0, 0.0)
            v = (hsum.value - heights[i].value - heights[j].value) / 2
            e = (hsum.err + heights[i].err + heights[j].err) / 2
            vals[i][j] = vals[j][i] = v
            errs[i][j] = errs[j][i] = e + math.ldexp(max(1.0, abs(v)), -50)
    lat = GramLattice(tuple(map(tuple, vals)), tuple(map(tuple, errs)))
    if m and float(np.linalg.det(lat.value_matrix())) < 1e-6:
        warnings.warn(
            "Gram determinant below 1e-6; generators may be dependent",
            stacklevel=2,
        )
    return lat


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def _count_points_mod_p(cmin, p):
    """#E(F_p) for an odd prime of good reduction, via character sums."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in cmin.ainvs())
    total = p + 1
    for x in range(p):
        d = (a1 * x + a3) ** 2 + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)
        d %= p
        if d != 0:
            total += 1 if pow(d, (p - 1) // 2, p) == 1 else -1
    return total


def _torsion_order_bound(cmin):
    disc = int(cmin.disc)
    bound = 0
    used = 0
    p = 3
    while used < 8 and p < 200:
        if disc % p != 0:
            bound = math.gcd(bound, _count_points_mod_p(cmin, p))
            used += 1
            if bound == 1:
                return 1
        p += 2
        while not is_prime(p):
            p += 2
    return bound if bound else 16


def _isqrt_floor(n):
    return math.isqrt(n) if n >= 0 else -1 - math.isqrt(-n - 1)


def _integer_cubic_roots(c2, c1, c0):
    """Integer roots of X^3 + c2 X^2 + c1 X + c0, by exact bisection.

    The derivative 3X^2 + 2 c2 X + c1 splits the line into at most three
    monotone pieces; on each piece a sign change pins down at most one
    integer root, found by binary search in exact integer arithmetic.
    """

    def f(x):
        return ((x + c2) * x + c1) * x + c0

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
    cuts = [-bound, bound]
    quad_disc = c2 * c2 - 3 * c1
    if quad_disc >= 0:
        r = _isqrt_floor(quad_disc)
        for num in (-c2 - r, -c2 + r):
            for x in (num // 3 - 1, num // 3, num // 3 + 1):
                if -bound < x < bound:
                    cuts.append(x)
    cuts = sorted(set(cuts))
    out = set()
    for lo, hi in zip(cuts, cuts[1:]):
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            out.add(lo)
        if fhi == 0:
            out.add(hi)
        if (flo < 0) == (fhi < 0) or flo == 0 or fhi == 0:
            continue
        sign = 1 if fhi > flo else -1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            val = sign * f(mid)
            if val == 0:
                out.add(mid)
                break
            if val < 0:
                lo = mid
            else:
                hi = mid
    return sorted(out)


def torsion_subgroup(c):
    """The rational torsion subgroup: order, structure, affine points.

    Candidates come from integral points on the scaled model
    Y^2 = X^3 - 27 c4 X - 54 c6 with Y = 0 or Y^2 dividing 6^12 disc, then are
    confirmed on the minimal model by exhibiting a vanishing multiple (order
    at most 16); a candidate with a multiple whose x-denominator does not
    divide 4 is rejected there, since torsion points of an integral model
    have 4x integral (generalized Nagell-Lutz, Silverman, AEC, Thm VIII.7.1).
    A gcd of good-reduction point counts short-circuits curves with trivial
    torsion.
    """
    cmin, tr = c.minimal
    points = []
    if _torsion_order_bound(cmin) > 1:
        b2, c4, c6 = int(cmin.b2), int(cmin.c4), int(cmin.c6)
        a1, a3 = cmin.a1, cmin.a3
        dfac = {red.p: red.v_disc for red in cmin.reductions}
        dfac[2] = dfac.get(2, 0) + 12
        dfac[3] = dfac.get(3, 0) + 12
        etas = [0] + square_divisors(dfac)
        seen = set()
        for eta in etas:
            for xi in _integer_cubic_roots(0, -27 * c4, -54 * c6 - eta * eta):
                for sgn in ((eta,) if eta == 0 else (eta, -eta)):
                    x = Fraction(xi - 3 * b2, 36)
                    y = (Fraction(sgn, 108) - a1 * x - a3) / 2
                    p = RationalPoint(x, y)
                    key = (p.x, p.y)
                    if key in seen:
                        continue
                    seen.add(key)
                    lhs = y * y + a1 * x * y + a3 * y
                    rhs = x ** 3 + cmin.a2 * x * x + cmin.a4 * x + cmin.a6
                    if lhs != rhs:
                        continue
                    if _torsion_multiple(cmin, p) is not None:
                        points.append(p)
    order = 1 + len(points)
    two_torsion = sum(1 for p in points if add(cmin, p, p) is None)
    if two_torsion == 3:
        invariants = (2, order // 2)
        if order % 4 != 0 or order // 2 not in (2, 4, 6, 8):
            raise AssertionError(f"non-Mazur torsion structure {invariants}")
    else:
        invariants = (order,)
        if order not in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
            raise AssertionError(f"non-Mazur cyclic torsion order {order}")
    back = invert_transform(tr)
    mapped = sorted((map_point(back, p) for p in points), key=lambda q: (q.x, q.y))
    return TorsionInfo(order, invariants, tuple(mapped))
