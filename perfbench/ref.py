"""Reference arithmetic for the benchmark, written apart from ellreg.

Nothing here imports the package under test.  The generator uses it to
build inputs with known properties (torsion points, dependent points,
independent generators), and the output checks use it as the oracle:
exact group law, the doubling-limit height, brute-force point counts over
F_p, and box enumeration of lattice vectors.
"""

import math
from fractions import Fraction

import numpy as np

SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# ---------------------------------------------------------------------------
# curves and the group law
# ---------------------------------------------------------------------------


class Model:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q, exact."""

    def __init__(self, ainvs):
        self.a1, self.a2, self.a3, self.a4, self.a6 = (Fraction(a) for a in ainvs)
        a1, a2, a3, a4, a6 = self.ainvs
        self.b2 = a1 * a1 + 4 * a2
        self.b4 = a1 * a3 + 2 * a4
        self.b6 = a3 * a3 + 4 * a6
        self.b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        self.disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j(self):
        """The j-invariant c4^3 / disc (the curve must be nonsingular)."""
        return (self.b2 * self.b2 - 24 * self.b4) ** 3 / self.disc

    def neg(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (x, -y - self.a1 * x - self.a3)

    def add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        (x1, y1), (x2, y2) = p, q
        if x1 == x2:
            if y1 + y2 + self.a1 * x2 + self.a3 == 0:
                return None
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / (
                2 * y1 + self.a1 * x1 + self.a3
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + self.a1 * lam - self.a2 - x1 - x2
        return (x3, lam * (x1 - x3) - y1 - self.a1 * x3 - self.a3)

    def mul(self, n, pt):
        if n < 0:
            n, pt = -n, self.neg(pt)
        acc = None
        while n:
            if n & 1:
                acc = self.add(acc, pt)
            n >>= 1
            if n:
                pt = self.add(pt, pt)
        return acc

    def combo(self, coeffs, gens):
        acc = None
        for c, g in zip(coeffs, gens):
            if c:
                acc = self.add(acc, self.mul(c, g))
        return acc

    def integral_scale(self):
        """Least u with u^i a_i integral: x' = u^2 x, y' = u^3 y is integral."""
        u = 1
        for a, w in zip(self.ainvs, (1, 2, 3, 4, 6)):
            den = a.denominator
            # smallest k with den | k^w, built prime by prime
            for p in SMALL_PRIMES:
                if den == 1:
                    break
                e = 0
                while den % p == 0:
                    den //= p
                    e += 1
                if e:
                    k = -(-e // w)
                    while u % p ** k:
                        u *= p
            if den != 1:
                u *= den  # a large prime power part: den | den^w
        return u

    def integral_ainvs(self):
        """a-invariants of the integral model x' = u^2 x, y' = u^3 y."""
        u = self.integral_scale()
        return tuple(int(a * u ** w) for a, w in zip(self.ainvs, (1, 2, 3, 4, 6)))


def is_torsion(model, pt, max_order=12):
    """Exact order test: n*pt vanishes for some n <= 12 (Mazur's bound).

    Exits early by Nagell-Lutz: on the integral model x' = u^2 x a torsion
    point has 4x' integral, so a multiple with a larger x-denominator shows
    the point has infinite order.
    """
    u2 = model.integral_scale() ** 2
    acc = pt
    for _ in range(max_order):
        if acc is None:
            return True
        if 4 % (acc[0] * u2).denominator:
            return False
        acc = model.add(acc, pt)
    return acc is None


# ---------------------------------------------------------------------------
# integers: trial division and Miller-Rabin
# ---------------------------------------------------------------------------


def probable_prime(n):
    if n < 2:
        return False
    for p in SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n, budget):
    """A nontrivial factor of the composite n by Pollard's rho, or None."""
    for c in range(1, 4):
        x = y = 2
        g, steps = 1, 0
        while g == 1 and steps < budget:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
            steps += 1
        if 1 < g < n:
            return g
    return None


def easy_factor(n, budget=3000):
    """{p: e} for |n| by trial division and a short Pollard rho, else None.

    None means some cofactor resisted `budget` rho steps, so the
    factorization is not cheap for any method of that kind.
    """
    n = abs(n)
    out = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m, budget)
        if d is None:
            return None
        stack += [d, m // d]
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# heights by the doubling limit
# ---------------------------------------------------------------------------


def _log_int(n):
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)


def doubling_height(model, pt, steps):
    """(0.5 * 4^-steps * h(x(2^steps P)), error estimate).

    The x-coordinate is iterated with the duplication map in exact
    rationals.  The step defects d_n = h(x_n) - 4 h(x_{n-1}) stay bounded
    along the orbit; the tail beyond the last step is at most
    sup|d| * 4^-steps / 6, and the estimate takes eight times the largest
    defect seen, so a slowly settling orbit still gets a wide margin.
    """
    bs = (model.b2, model.b4, model.b6, model.b8)
    lcm = math.lcm(*(b.denominator for b in bs))
    b2, b4, b6, b8 = (int(b * lcm) for b in bs)
    a, d = pt[0].numerator, pt[0].denominator
    hs = [_log_int(max(abs(a), d))]
    for _ in range(steps):
        aa, dd = a * a, d * d
        num = aa * aa * lcm - b4 * aa * dd - 2 * b6 * a * d * dd - b8 * dd * dd
        den = d * (4 * lcm * a * aa + b2 * aa * d + 2 * b4 * a * dd + b6 * d * dd)
        if den == 0:
            return 0.0, 0.0  # 2-torsion
        g = math.gcd(num, den)
        a, d = num // g, den // g
        if d < 0:
            a, d = -a, -d
        hs.append(_log_int(max(abs(a), d)))
    defect = max(abs(hs[n] - 4 * hs[n - 1]) for n in range(1, len(hs)))
    value = 0.5 * hs[-1] / 4 ** steps
    err = 8.0 * max(defect, 1.0) / (6.0 * 4 ** steps) + 1e-12 * max(1.0, value)
    return value, err


def approx_gram(model, gens, steps):
    """Gram matrix of doubling-limit pairings and its entrywise error."""
    m = len(gens)
    h = [doubling_height(model, g, steps) for g in gens]
    vals = [[0.0] * m for _ in range(m)]
    errs = [[0.0] * m for _ in range(m)]
    for i in range(m):
        vals[i][i], errs[i][i] = h[i]
        for j in range(i + 1, m):
            s = model.add(gens[i], gens[j])
            hs = doubling_height(model, s, steps) if s is not None else (0.0, 0.0)
            vals[i][j] = vals[j][i] = (hs[0] - h[i][0] - h[j][0]) / 2
            errs[i][j] = errs[j][i] = (hs[1] + h[i][1] + h[j][1]) / 2
    return vals, errs


# ---------------------------------------------------------------------------
# point counts over F_p
# ---------------------------------------------------------------------------


def count_mod_p(int_ainvs, p):
    """#E(F_p) by running over every affine pair (x, y), plus infinity."""
    a1, a2, a3, a4, a6 = (a % p for a in int_ainvs)
    total = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + lin * y - rhs) % p == 0:
                total += 1
    return total


def good_odd_primes(disc, count):
    out = []
    for p in SMALL_PRIMES[1:]:
        if disc % p:
            out.append(p)
            if len(out) == count:
                break
    return out


# ---------------------------------------------------------------------------
# lattice vectors by box enumeration
# ---------------------------------------------------------------------------


def _float_lll(gram):
    """Integer basis change U (columns) making U^T G U LLL-reduced, in floats.

    Only the box shape depends on this; the counts below are exact for any
    unimodular U, which is checked exactly.
    """
    m = len(gram)
    g = np.array(gram, dtype=float)
    u = np.eye(m, dtype=np.int64)

    def gso(gm):
        mu = np.zeros((m, m))
        b = np.zeros(m)
        for i in range(m):
            for j in range(i):
                mu[i, j] = (gm[i, j] - sum(mu[i, k] * mu[j, k] * b[k] for k in range(j))) / b[j]
            b[i] = gm[i, i] - sum(mu[i, k] ** 2 * b[k] for k in range(i))
        return mu, b

    k = 1
    guard = 0
    while k < m and guard < 10000:
        guard += 1
        for j in range(k - 1, -1, -1):
            mu, _ = gso(g)
            q = int(round(mu[k, j]))
            if q:
                t = np.eye(m, dtype=np.int64)
                t[j, k] = -q
                u = u @ t
                g = t.T.astype(float) @ g @ t.astype(float)
        mu, b = gso(g)
        if b[k] >= (0.75 - mu[k, k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            t = np.eye(m, dtype=np.int64)
            t[[k - 1, k]] = t[[k, k - 1]]
            u = u @ t
            g = t.T.astype(float) @ g @ t.astype(float)
            k = max(k - 1, 1)
    return [[int(v) for v in row] for row in u]


def _exact_det(mat):
    a = [list(row) for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


class BoxLattice:
    """Exact vector counts and minima of v^T G v for a rational Gram matrix.

    The box is laid out in a reduced basis found by a float LLL of this
    module's own; every form value is then computed in float and settled
    in exact rationals when it lies within 1e-9 (relative) of the bound.
    """

    def __init__(self, gram):
        self.m = len(gram)
        self.exact = [[Fraction(x) for x in row] for row in gram]
        u = _float_lll([[float(x) for x in row] for row in self.exact])
        if abs(_exact_det([[Fraction(x) for x in row] for row in u])) != 1:
            raise AssertionError("box basis change is not unimodular")
        m = self.m
        self.u = np.array(u, dtype=np.int64)
        red = [
            [sum(u[a][i] * self.exact[a][b] * u[b][j] for a in range(m) for b in range(m)) for j in range(m)]
            for i in range(m)
        ]
        self.red_exact = red
        self.red = np.array([[float(x) for x in row] for row in red])
        self.red_inv_diag = np.diag(np.linalg.inv(self.red))

    def qexact(self, v):
        """Exact form value of an integer vector in the original basis."""
        m = self.m
        return sum(self.exact[i][j] * v[i] * v[j] for i in range(m) for j in range(m))

    def _box(self, bound):
        """Yield (vectors in reduced coordinates, float form values), chunked."""
        m = self.m
        radii = [int(math.floor(math.sqrt(max(bound, 0.0) * d * (1 + 1e-6)))) + 1 for d in self.red_inv_diag]
        if m == 1:
            vecs = np.arange(-radii[0], radii[0] + 1, dtype=np.int64).reshape(-1, 1)
            yield vecs, np.einsum("ki,ij,kj->k", vecs, self.red, vecs)
            return
        axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii[1:]]
        grids = np.meshgrid(*axes, indexing="ij")
        rest = np.stack([gr.ravel() for gr in grids], axis=1)
        for x0 in range(-radii[0], radii[0] + 1):
            vecs = np.concatenate([np.full((len(rest), 1), x0, dtype=np.int64), rest], axis=1)
            yield vecs, np.einsum("ki,ij,kj->k", vecs, self.red, vecs)

    def _settle(self, vecs, q, bound):
        """Boolean mask of vectors with exact form value <= bound."""
        bf = Fraction(bound)
        band = 1e-9 * max(bound, 1e-300)
        inside = q <= bound - band
        near = np.nonzero(np.abs(q - bound) <= band)[0]
        for k in near:
            w = self.u @ vecs[k]
            inside[k] = self.qexact([int(z) for z in w]) <= bf
        return inside

    def counts(self, bounds):
        """Numbers of integer vectors (zero included) with form value <= each bound.

        One pass over the box of the largest bound keeps every form value
        below it; each bound then splits the sorted values, and the values
        within the guard band of a bound are settled exactly.
        """
        top = max(bounds)
        band = 1e-9 * max(top, 1e-300)
        qs, vecs = [], []
        for v, q in self._box(top):
            keep = q <= top + band
            qs.append(q[keep])
            vecs.append(v[keep])
        qs = np.concatenate(qs)
        vecs = np.concatenate(vecs)
        order = np.argsort(qs, kind="stable")
        qs, vecs = qs[order], vecs[order]
        out = []
        for bound in bounds:
            bf = Fraction(bound)
            lo = int(np.searchsorted(qs, bound - band, side="right"))
            hi = int(np.searchsorted(qs, bound + band, side="right"))
            settled = sum(
                1 for k in range(lo, hi) if self.qexact([int(z) for z in self.u @ vecs[k]]) <= bf
            )
            out.append(lo + settled)
        return out

    def minima(self):
        """Exact squared successive minima, as Fractions, ascending."""
        m = self.m
        bound = max(float(self.red_exact[i][i]) for i in range(m)) * (1 + 1e-9)
        found = []
        for vecs, q in self._box(bound):
            keep = self._settle(vecs, q, bound) & (q > 0)
            for k in np.nonzero(keep)[0]:
                w = [int(z) for z in self.u @ vecs[k]]
                found.append((self.qexact(w), w))
        found.sort()
        values, basis = [], []
        for val, w in found:
            row = [Fraction(z) for z in w]
            for col, piv in basis:
                f = row[col] / piv[col]
                if f:
                    row = [a - f * b for a, b in zip(row, piv)]
            nz = next((c for c in range(m) if row[c]), None)
            if nz is None:
                continue
            basis.append((nz, row))
            values.append(val)
            if len(values) == m:
                break
        return values
