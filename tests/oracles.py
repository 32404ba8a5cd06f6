"""Independent test oracles.

These deliberately avoid the library's height machinery: heights come from the
raw doubling limit on exact integer fractions, and lattice counts come from
naive box enumeration.  Agreement between these and the production code is the
core correctness evidence for the height and enumeration layers.  The one
exception is oracle_saturated_height, the library's former height path: it
shares the archimedean series with the library and checks the local terms
that replaced its multiplication into the identity component.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from ellreg import heights
from ellreg.primes import factorize, log_int
from ellreg.weierstrass import integral_model
from ellreg.points import add, map_point, multiply


def duplication_orbit(c, pt, steps):
    """Exact x-coordinates (a_n, d_n) of 2^n * pt via duplication polynomials.

    Common factors of the duplication fraction are supported on bad primes, so
    reduction strips those only; the returned pairs are coprime with d_n > 0.
    """
    ci, tr = integral_model(c)
    pt = map_point(tr, pt)
    b2, b4, b6, b8 = int(ci.b2), int(ci.b4), int(ci.b6), int(ci.b8)
    bad = sorted(factorize(int(ci.disc)))
    a, d = pt.x.numerator, pt.x.denominator
    orbit = [(a, d)]
    for _ in range(steps):
        aa, dd = a * a, d * d
        num = aa * aa - b4 * aa * dd - 2 * b6 * a * d * dd - b8 * dd * dd
        den = d * (4 * a * aa + b2 * aa * d + 2 * b4 * a * dd + b6 * d * dd)
        if den == 0:
            raise ZeroDivisionError("orbit hit a two-torsion point")
        for p in bad:
            while num % p == 0 and den % p == 0:
                num //= p
                den //= p
        if den < 0:
            num, den = -num, -den
        a, d = num, den
        orbit.append((a, d))
    return orbit


def doubling_height_sequence(c, pt, steps):
    """[log max(|a_n|, d_n)] for n = 0..steps along the duplication orbit."""
    return [log_int(max(abs(a), d)) for a, d in duplication_orbit(c, pt, steps)]


def oracle_height(c, pt, steps=9):
    """Half the scaled doubling limit: 0.5 * 4^{-n} * h(x(2^n P)) at n = steps."""
    hs = doubling_height_sequence(c, pt, steps)
    return 0.5 * hs[-1] / 4 ** steps


def oracle_torsion_order(c, pt, max_n=16):
    """The order of pt if it is at most max_n, else None.

    Forms the multiples of pt one by one on the given model, with no
    integrality shortcut; 16 exceeds every torsion order over Q (Mazur).
    """
    acc = pt
    for n in range(1, max_n + 1):
        if acc is None:
            return n
        acc = add(c, acc, pt)
    return None


def oracle_count_int_gram(gram, bound, include_zero=False):
    """Exact count of integer vectors with v^T G v <= bound, G integer.

    Naive box enumeration; intended for small ranks and moderate bounds.
    bound may be an int or Fraction.
    """
    g = np.asarray(gram, dtype=np.int64)
    m = g.shape[0]
    bound = Fraction(bound)
    if bound < 0:
        return 0
    ginv = np.linalg.inv(g.astype(float))
    radii = [
        int(math.isqrt(int(float(bound) * ginv[i, i] * (1 + 1e-9)) + 1)) + 1
        for i in range(m)
    ]
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
    grids = np.meshgrid(*axes, indexing="ij")
    vecs = np.stack([gr.ravel() for gr in grids], axis=1)
    q = np.einsum("ki,ij,kj->k", vecs, g, vecs)
    hits = int(np.count_nonzero(q * bound.denominator <= bound.numerator))
    if not include_zero:
        hits -= 1
    return hits


def oracle_count_fraction_gram(gram, bound, include_zero=False):
    """Exact count for a rational Gram matrix, evaluated per candidate."""
    m = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    bound = Fraction(bound)
    if bound < 0:
        return 0
    gf = np.array([[float(x) for x in row] for row in g])
    ginv = np.linalg.inv(gf)
    radii = [int(math.floor(math.sqrt(float(bound) * ginv[i, i] * (1 + 1e-9)))) + 1 for i in range(m)]
    count = 0
    for vec in itertools.product(*[range(-r, r + 1) for r in radii]):
        q = Fraction(0)
        for i in range(m):
            for j in range(m):
                q += g[i][j] * vec[i] * vec[j]
        if q <= bound:
            count += 1
    if not include_zero:
        count -= 1
    return count


def oracle_minima_int_gram(gram, limit=None):
    """Successive minima of an integer Gram form by brute enumeration."""
    g = np.asarray(gram, dtype=np.int64)
    m = g.shape[0]
    # grow the search radius until m independent vectors are found
    bound = max(int(g[i, i]) for i in range(m))
    while True:
        ginv = np.linalg.inv(g.astype(float))
        radii = [int(math.isqrt(int(bound * ginv[i, i] * (1 + 1e-9)) + 1)) + 1 for i in range(m)]
        axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
        grids = np.meshgrid(*axes, indexing="ij")
        vecs = np.stack([gr.ravel() for gr in grids], axis=1)
        q = np.einsum("ki,ij,kj->k", vecs, g, vecs)
        order = np.argsort(q, kind="stable")
        chosen = []
        minima = []
        for idx in order:
            if q[idx] == 0 or q[idx] > bound:
                continue
            v = vecs[idx]
            cand = chosen + [v]
            if np.linalg.matrix_rank(np.array(cand, dtype=float)) == len(cand):
                chosen.append(v)
                minima.append(int(q[idx]))
                if len(chosen) == m:
                    return minima, chosen
        bound *= 2
        if limit is not None and bound > limit:
            raise RuntimeError("oracle search bound exceeded")


def reduces_to_singular(cmin, q, p):
    """Whether q, on the integral model cmin, reduces mod p to the singular
    point: q is p-integral and both partial derivatives of the Weierstrass
    equation vanish at it mod p."""
    if q is None or q.x.denominator % p == 0:
        return False
    x = q.x.numerator * pow(q.x.denominator, -1, p) % p
    y = q.y.numerator * pow(q.y.denominator, -1, p) % p
    a1, a2, a3, a4 = (int(a) for a in cmin.ainvs()[:4])
    fx = 3 * x * x + 2 * a2 * x + a4 - a1 * y
    fy = 2 * y + a1 * x + a3
    return fx % p == 0 and fy % p == 0


def oracle_saturated_height(cmin, q, target_err):
    """Canonical height of a point of infinite order q on the minimal model
    cmin, through the identity component.

    At each bad prime take the least k dividing the Tamagawa number c_p with
    k*q reducing to a nonsingular point; m*q, for m the lcm of these k, has
    everywhere-nonsingular reduction, so the archimedean series of
    heights._series_height alone gives h_std(m*q) = 2 m^2 h_hat(q).
    """
    m = 1
    for red in cmin.reductions:
        k = next(
            k
            for k in range(1, red.c + 1)
            if red.c % k == 0
            and not reduces_to_singular(cmin, multiply(cmin, k, q), red.p)
        )
        m = math.lcm(m, k)
    scale = 2 * m * m
    std, std_err = heights._series_height(
        cmin, multiply(cmin, m, q), target_err * scale / 2, heights.DEFAULT_PRECISION
    )
    value = std / scale
    return heights.HeightValue(value, std_err / scale + math.ldexp(max(1.0, abs(value)), -50))
