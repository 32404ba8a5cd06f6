"""Positive-definite lattice engine.

Regulators (Gram determinants with propagated error bounds), LLL reduction
carried out directly on Gram matrices in exact rational arithmetic, and
Fincke-Pohst enumeration for successive minima and point counting.  The
enumeration prunes with a floating Cholesky factor whose search radius is
inflated by a small safety margin, then re-checks every near-boundary
candidate exactly against the rationals denoted by the Gram entries, so
counts are exact for the matrix as given.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateLattice, EnumerationBudgetExceeded
from .heights import GramLattice, HeightValue

DEFAULT_ENUM_CAP = 10**8

_LOVASZ_DELTA = Fraction(99, 100)


@dataclass(frozen=True)
class MinimaProfile:
    """Squared successive minima in ascending order with realizing vectors."""

    values: tuple
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(
            self, "vectors", tuple(tuple(int(x) for x in v) for v in self.vectors)
        )
        if list(self.values) != sorted(self.values):
            raise ValueError("squared minima must be ascending")
        if len(self.values) != len(self.vectors):
            raise ValueError("one realizing vector per minimum")


@dataclass(frozen=True)
class CountingPair:
    """A height bound H together with the exact point count C at or below it."""

    H: float
    C: int

    def __post_init__(self):
        if self.H < 0 or self.C < 0:
            raise ValueError("bound and count must be nonnegative")


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _fraction_matrix(g):
    return [[Fraction(x) for x in row] for row in g.values]


def _exact_det(mat):
    """Determinant by fraction-exact Gaussian elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for cc in range(col, n):
                    a[r][cc] -= f * a[col][cc]
    return det


def regulator_L(g):
    """Gram determinant as a HeightValue; the empty lattice has regulator 1.

    The error bound is first-order propagation of the per-entry error
    bounds through the adjugate, doubled as a cushion for the second-order
    remainder (negligible here because positive definiteness certification
    keeps perturbations far below the spectral gap).
    """
    if g.m == 0:
        return HeightValue(1.0, 0.0)
    det = _exact_det(_fraction_matrix(g))
    value = float(det)
    err_round = 0.0 if Fraction(value) == det else math.ulp(value)
    emat = g.err_matrix()
    if float(emat.sum()) == 0.0:
        return HeightValue(value, err_round)
    vmat = g.value_matrix()
    adj = np.linalg.inv(vmat) * value
    err = 2.0 * float(np.sum(np.abs(adj) * emat)) + err_round
    return HeightValue(value, err)


def reg_convert(reg_L, m):
    """Rescale a covolume-squared regulator by 2^m (pairing convention)."""
    if m < 0:
        raise ValueError("rank must be nonnegative")
    return math.ldexp(float(reg_L), int(m))


def asymptotic_constant(m, tors, reg_L):
    """Leading constant of the counting asymptotic N(T) ~ c * T^(m/2)."""
    if m < 1:
        raise ValueError("rank must be positive")
    if tors < 1:
        raise ValueError("torsion order must be positive")
    if reg_L <= 0:
        raise ValueError("regulator must be positive")
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1) * tors / math.sqrt(reg_L)


# ---------------------------------------------------------------------------
# LLL reduction on Gram matrices
# ---------------------------------------------------------------------------


def _gso(a):
    """Gram-Schmidt data (mu, B) of the form a over the standard basis."""
    m = len(a)
    mu = [[Fraction(0)] * m for _ in range(m)]
    B = [Fraction(0)] * m
    for i in range(m):
        for j in range(i):
            s = a[i][j]
            for k in range(j):
                s -= mu[i][k] * mu[j][k] * B[k]
            mu[i][j] = s / B[j]
        s = a[i][i]
        for k in range(i):
            s -= mu[i][k] * mu[i][k] * B[k]
        B[i] = s
        if B[i] <= 0:
            raise DegenerateLattice("Gram matrix is not positive definite")
    return mu, B


def lll_reduce(g):
    """LLL-reduce a Gram matrix; returns (reduced GramLattice, transform U).

    U is unimodular with columns expressing the reduced basis in terms of
    the input basis, so G_reduced = U^T G U.  The reduction runs in exact
    rational arithmetic on the Gram entries; the Lovasz parameter is 0.99
    with size-reduction threshold 1/2.
    """
    m = g.m
    a = _fraction_matrix(g)
    u = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]

    def colop(k, j, q):
        # b_k -= q b_j : update Gram entries of index k
        for r in range(m):
            u[r][k] -= q * u[r][j]
        akk = a[k][k] - 2 * q * a[k][j] + q * q * a[j][j]
        for r in range(m):
            if r != k:
                a[k][r] -= q * a[j][r]
                a[r][k] = a[k][r]
        a[k][k] = akk

    def swap(k):
        for r in range(m):
            u[r][k], u[r][k - 1] = u[r][k - 1], u[r][k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for r in range(m):
            a[r][k], a[r][k - 1] = a[r][k - 1], a[r][k]

    if m:
        mu, B = _gso(a)
        k = 1
        while k < m:
            for j in range(k - 1, -1, -1):
                mukj = mu[k][j]
                if abs(mukj) > Fraction(1, 2):
                    q = (2 * mukj.numerator + mukj.denominator) // (
                        2 * mukj.denominator
                    )
                    colop(k, j, q)
                    mu, B = _gso(a)
            if B[k] >= (_LOVASZ_DELTA - mu[k][k - 1] ** 2) * B[k - 1]:
                k += 1
            else:
                swap(k)
                mu, B = _gso(a)
                k = max(k - 1, 1)

    assert abs(_exact_det(u)) == 1
    uabs = np.abs(np.array([[float(x) for x in row] for row in u]))
    errs = uabs.T @ g.err_matrix() @ uabs
    vals = [[float(x) for x in row] for row in a]
    for i in range(m):
        for j in range(m):
            if Fraction(vals[i][j]) != a[i][j]:
                errs[i][j] += math.ulp(vals[i][j])
    vals = tuple(tuple(row) for row in vals)
    errs = tuple(tuple(float(x) for x in row) for row in errs)
    umat = tuple(tuple(int(x) for x in row) for row in u)
    return GramLattice(vals, errs), umat


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration
# ---------------------------------------------------------------------------


def _form_value(exact, v):
    """Exact value of the form with rational entries `exact` at integer v."""
    m = len(v)
    s = Fraction(0)
    for i in range(m):
        vi = v[i]
        if vi:
            s += exact[i][i] * vi * vi
            for j in range(i + 1, m):
                if v[j]:
                    s += 2 * exact[i][j] * vi * v[j]
    return s


def _enumerate(g, bounds, cap, collect=False):
    """Integer vectors (one per +-pair, first nonzero > 0) with form value
    at most the largest of the ascending bounds, exactly; the zero vector is
    never reported.

    Returns (counts, vectors): counts[k] is the number of pairs with form
    value <= bounds[k]; vectors, in the original coordinates, only when
    collect is set (else None).  Candidates are generated under g's
    LLL-reduced form with an inflated float radius.  Each accepted vector is
    put under the first bound it lies under, settled by exact comparison
    whenever its float value is within that bound's guard band.
    """
    m = g.m
    bounds = [float(b) for b in bounds]
    if m == 0:
        return [0] * len(bounds), ([] if collect else None)
    red, umat = g.reduced
    exact = _fraction_matrix(g)
    top = bounds[-1]
    # scale-relative guard bands: float evaluation error is relative to the
    # bound, so an absolute band would explode the search on tiny lattices
    levels = [(b, 1e-9 * b, Fraction(b)) for b in bounds]
    uppers = [b + band for b, band, _ in levels]

    def back(v):
        # reduced coordinates -> original coordinates via U
        return tuple(sum(umat[r][c] * v[c] for c in range(m)) for r in range(m))

    vol = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
    det = float(np.linalg.det(red.value_matrix()))
    est = vol * max(top, 0.0) ** (m / 2) / math.sqrt(max(det, 1e-300))
    if est > 4.0 * cap:
        raise EnumerationBudgetExceeded(
            f"estimated {est:.3e} lattice points exceeds the cap {cap:.3e}"
        )
    L = np.linalg.cholesky(red.value_matrix())
    R = L.T  # upper triangular, q(x) = ||R x||^2
    band = 1e-9 * top
    radius = (top + band) * (1 + 1e-9)
    rows = [[float(R[i][j]) for j in range(m)] for i in range(m)]
    vecs = [] if collect else None
    x = [0] * m
    hist = [0] * len(bounds)
    count = 0
    nodes = 0

    def first_bound(qf, v):
        # uppers ascend, so every bound before the bisection point lies
        # below qf by more than its band
        value = None
        for k in range(bisect.bisect_left(uppers, qf), len(levels)):
            b, b_band, b_exact = levels[k]
            if qf <= b - b_band:
                return k
            # near the boundary: settle exactly against the original entries
            if value is None:
                value = _form_value(exact, back(v))
            if value <= b_exact:
                return k
        return None

    def descend(i, rem, shifts):
        # rem: remaining squared radius; shifts[j] = sum_{k>j} R[j][k] x[k]
        nonlocal count, nodes
        rii = rows[i][i]
        ci = shifts[i] / rii
        half = math.sqrt(max(rem, 0.0)) / rii
        lo = math.ceil(-ci - half - 1e-12)
        hi = math.floor(-ci + half + 1e-12)
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > 8 * cap:
                raise EnumerationBudgetExceeded(
                    f"enumeration visited more than {8 * cap:.0f} nodes"
                )
            t = rii * xi + shifts[i]
            used = t * t
            if used > rem + band:
                continue
            x[i] = xi
            if i == 0:
                if all(v == 0 for v in x):
                    continue
                # canonical representative: first nonzero coordinate positive
                for v in x:
                    if v:
                        sign = 1 if v > 0 else -1
                        break
                if sign < 0:
                    continue
                # evaluate the form value directly for the guard-band test
                qv = 0.0
                for r in range(m):
                    s = 0.0
                    for c2 in range(r, m):
                        s += rows[r][c2] * x[c2]
                    qv += s * s
                k = first_bound(qv, x)
                if k is not None:
                    count += 1
                    if count > cap:
                        raise EnumerationBudgetExceeded(
                            f"point count exceeds the cap {cap:.0f}"
                        )
                    hist[k] += 1
                    if collect:
                        vecs.append(tuple(x))
            else:
                nshifts = shifts[:]
                for j in range(i):
                    nshifts[j] += rows[j][i] * xi
                descend(i - 1, rem - used, nshifts)
        x[i] = 0

    descend(m - 1, radius, [0.0] * m)

    counts = list(itertools.accumulate(hist))
    if not collect:
        return counts, None
    out = []
    for v in vecs:
        w = back(v)
        for comp in w:
            if comp:
                if comp < 0:
                    w = tuple(-z for z in w)
                break
        out.append(w)
    return counts, out


def count_grid(g, bounds, include_zero=False, cap=DEFAULT_ENUM_CAP):
    """Exact counts of integer vectors with form value at most each of the
    ascending bounds, from one enumeration; one CountingPair per bound."""
    bounds = [float(H) for H in bounds]
    if not bounds or bounds[0] < 0:
        raise ValueError("height bounds must be nonnegative and not empty")
    if bounds != sorted(bounds):
        raise ValueError("height bounds must be ascending")
    pairs, _ = _enumerate(g, bounds, cap)
    zero = 1 if include_zero else 0
    return tuple(CountingPair(H, 2 * n + zero) for H, n in zip(bounds, pairs))


def count_below(g, H, include_zero=False, cap=DEFAULT_ENUM_CAP):
    """Exact number of integer vectors with form value at most H."""
    return count_grid(g, [H], include_zero, cap)[0]


def count_points_below(g, tors, T, cap=DEFAULT_ENUM_CAP):
    """Rational-point count of height <= T: torsion times the lattice count."""
    tors = int(tors)
    if tors < 1:
        raise ValueError("torsion order must be positive")
    if float(T) < 0:
        raise ValueError("height bound must be nonnegative")
    if g.m == 0:
        return tors
    return tors * count_below(g, T, include_zero=True, cap=cap).C


def successive_minima(g, cap=DEFAULT_ENUM_CAP):
    """Exact squared successive minima via enumeration below the largest
    reduced diagonal entry (which always contains m independent vectors),
    with greedy independent selection in (form value, lexicographic) order.
    """
    m = g.m
    if m == 0:
        return MinimaProfile((), ())
    red, _ = g.reduced
    bound = max(red.values[i][i] + red.errs[i][i] for i in range(m))
    _, vecs = _enumerate(g, [bound], cap, collect=True)
    exact = _fraction_matrix(g)
    ranked = sorted(
        ((_form_value(exact, v), v) for v in vecs), key=lambda t: (t[0], t[1])
    )
    chosen = []
    values = []
    basis = []  # row-reduced fraction rows for the independence test
    for q, v in ranked:
        row = [Fraction(z) for z in v]
        for piv_col, piv_row in basis:
            f = row[piv_col] / piv_row[piv_col]
            if f:
                for c in range(m):
                    row[c] -= f * piv_row[c]
        nz = next((c for c in range(m) if row[c]), None)
        if nz is None:
            continue
        basis.append((nz, row))
        chosen.append(v)
        values.append(float(q))
        if len(chosen) == m:
            break
    if len(chosen) < m:
        raise DegenerateLattice("could not find full-rank set of short vectors")
    return MinimaProfile(tuple(values), tuple(chosen))
