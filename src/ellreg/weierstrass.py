"""Weierstrass models over Q: invariants, minimal models, local reduction data.

All model arithmetic is exact (integers / fractions.Fraction).  Floating point
appears only in the derived height-type quantities at the bottom of the file.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotMinimalAtP, SingularCurve
from .primes import factorize, is_square_mod, log_int, valuation

_INF = 10 ** 9  # sentinel valuation for 0


@dataclass(frozen=True)
class CurveModel:
    """A Weierstrass model y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Coefficients are rational; construction rejects singular models.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.disc == 0:
            raise SingularCurve(f"discriminant is zero for a-invariants {self.ainvs()}")

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @cached_property
    def b4(self):
        return self.a1 * self.a3 + 2 * self.a4

    @cached_property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @cached_property
    def b8(self):
        return (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )

    @cached_property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @cached_property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self):
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @cached_property
    def j(self):
        return self.c4 ** 3 / self.disc

    def is_integral(self):
        return all(a.denominator == 1 for a in self.ainvs())

    # Facts of the curve computed on its global minimal model, once per
    # CurveModel object; the minimal model is its own minimal model, so a
    # curve and its minimal model share one copy of each.

    @cached_property
    def minimal(self):
        """(global minimal model, transform reaching it), as minimal_model."""
        cmin, tr = minimal_model(self)
        cmin.__dict__["minimal"] = (cmin, IDENTITY_TRANSFORM)
        return cmin, tr

    @cached_property
    def reductions(self):
        """LocalReduction at every bad prime of the minimal model."""
        cmin = self.minimal[0]
        if cmin is not self:
            return cmin.reductions
        return tuple(tate_local(self, p) for p in factorize(int(self.disc)))

    @cached_property
    def f_sup(self):
        """Certified bound for sup |F| on the minimal model (see below)."""
        cmin = self.minimal[0]
        if cmin is not self:
            return cmin.f_sup
        return _f_sup_bound(int(self.b2), int(self.b4), int(self.b6), int(self.b8))


def curve(ainvs):
    """Build a CurveModel from a 5-tuple of rationals (ints, strings, Fractions)."""
    a1, a2, a3, a4, a6 = ainvs
    return CurveModel(Fraction(a1), Fraction(a2), Fraction(a3), Fraction(a4), Fraction(a6))


def compute_invariants(c):
    """The invariant vector (b2, b4, b6, b8, c4, c6, disc, j) of a model."""
    return (c.b2, c.b4, c.b6, c.b8, c.c4, c.c6, c.disc, c.j)


# ---------------------------------------------------------------------------
# coordinate changes  x = u^2 x' + r,  y = u^3 y' + s u^2 x' + t
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transform:
    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction


IDENTITY_TRANSFORM = Transform(Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def apply_transform(c, tr):
    """The model in the primed coordinates of tr."""
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    a1, a2, a3, a4, a6 = c.ainvs()
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    na3 = (a3 + r * a1 + 2 * t) / u ** 3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
    na6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
    return CurveModel(na1, na2, na3, na4, na6)


def invert_transform(tr):
    """The transform undoing tr: composing the two gives the identity."""
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    return Transform(1 / u, -r / u ** 2, -s / u, (s * r - t) / u ** 3)


def compose_transforms(first, second):
    """The single transform equivalent to applying `first`, then `second`."""
    u1, r1, s1, t1 = first.u, first.r, first.s, first.t
    u2, r2, s2, t2 = second.u, second.r, second.s, second.t
    return Transform(
        u1 * u2,
        u1 * u1 * r2 + r1,
        u1 * s2 + s1,
        u1 ** 3 * t2 + u1 * u1 * s1 * r2 + t1,
    )


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)
# ---------------------------------------------------------------------------


def _kraus_ok_at2(c4, c6):
    if c6 % 4 == 3:  # c6 = -1 mod 4
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_at3(c6):
    return c6 == 0 or valuation(c6, 3) != 2


def _kraus_ok(p, c4, c6):
    if p == 2:
        return _kraus_ok_at2(c4, c6)
    if p == 3:
        return _kraus_ok_at3(c6)
    return True


def model_from_c4c6(c4, c6):
    """The reduced integral model with the given invariants.

    Raises ValueError when no integral model has these invariants (Kraus's
    conditions at 2 and 3, plus integrality of the discriminant).
    """
    if (c4 ** 3 - c6 * c6) % 1728 != 0:
        raise ValueError("c4^3 - c6^2 is not divisible by 1728")
    disc = (c4 ** 3 - c6 * c6) // 1728
    if disc == 0:
        raise SingularCurve("c4^3 = c6^2 gives a singular model")
    if not (_kraus_ok_at2(c4, c6) and _kraus_ok_at3(c6)):
        raise ValueError(f"(c4, c6) = ({c4}, {c6}) fails integrality conditions")
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if b2 % 4 not in (0, 1):
        raise ValueError(f"(c4, c6) = ({c4}, {c6}) admits no valid b2")
    if (b2 * b2 - c4) % 24 != 0:
        raise ValueError("b2^2 - c4 not divisible by 24")
    b4 = (b2 * b2 - c4) // 24
    num6 = -b2 ** 3 + 36 * b2 * b4 - c6
    if num6 % 216 != 0:
        raise ValueError("b-invariant b6 is not integral")
    b6 = num6 // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    if (b4 - a1 * a3) % 2 != 0 or (b6 - a3 * a3) % 4 != 0:
        raise ValueError("a-invariants are not integral")
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3 * a3) // 4
    return curve((a1, a2, a3, a4, a6))


def integral_model(c):
    """Scale a rational model to an integral one; returns (model, transform)."""
    if c.is_integral():
        return c, IDENTITY_TRANSFORM
    m = 1
    for a in c.ainvs():
        m = m * a.denominator // math.gcd(m, a.denominator)
    tr = Transform(Fraction(1, m), Fraction(0), Fraction(0), Fraction(0))
    return apply_transform(c, tr), tr


def _recover_shift(src, dst, u):
    """The (r, s, t) with x = u^2 x' + r ... mapping model src to model dst."""
    u = Fraction(u)
    s = (u * dst.a1 - src.a1) / 2
    r = (u * u * dst.a2 - src.a2 + s * src.a1 + s * s) / 3
    t = (u ** 3 * dst.a3 - src.a3 - r * src.a1) / 2
    return Transform(u, r, s, t)


def minimal_model(c):
    """The global minimal model of c, with the transform that reaches it.

    Returns (minimal CurveModel in reduced form, Transform); the transform tr
    satisfies apply_transform(c, tr) == minimal model, and disc(c) =
    tr.u^12 * disc(minimal).
    """
    ci, tr0 = integral_model(c)
    c4, c6, disc = int(ci.c4), int(ci.c6), int(ci.disc)
    u = 1
    for p, e in factorize(disc).items():
        if e < 12:
            continue
        d = e // 12
        if c4 != 0:
            d = min(d, valuation(c4, p) // 4)
        if c6 != 0:
            d = min(d, valuation(c6, p) // 6)
        while d > 0 and not _kraus_ok(p, c4 // p ** (4 * d), c6 // p ** (6 * d)):
            d -= 1
        u *= p ** d
    cmin = model_from_c4c6(c4 // u ** 4, c6 // u ** 6)
    tr1 = _recover_shift(ci, cmin, u)
    tr = compose_transforms(tr0, tr1)
    assert apply_transform(c, tr) == cmin
    return cmin, tr


# ---------------------------------------------------------------------------
# Tate's algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalReduction:
    """Reduction data of a minimal model at one prime."""

    p: int
    kodaira: str
    v_disc: int
    f: int  # conductor exponent
    c: int  # Tamagawa number
    split: bool | None = None  # multiplicative reduction only

    def __post_init__(self):
        cap = 2 if self.p >= 5 else (5 if self.p == 3 else 8)
        if not (0 <= self.f <= cap):
            raise AssertionError(f"conductor exponent {self.f} out of range at {self.p}")

    @property
    def components(self):
        """Number of irreducible components of the special fiber."""
        k = self.kodaira
        fixed = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
        if k in fixed:
            return fixed[k]
        if k.endswith("*"):
            return 5 + int(k[1:-1])
        return max(1, int(k[1:]))


def _val(x, p):
    return _INF if x == 0 else valuation(x, p)


def _binvs(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _disc_of(a):
    b2, b4, b6, b8 = _binvs(a)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _translate(a, r, s, t):
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )


def _poly_gcd_mod(f, g, p):
    """Monic gcd of coefficient lists (low degree first) over F_p."""
    f = [x % p for x in f]
    g = [x % p for x in g]

    def trim(h):
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = trim(f), trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        g = [x * inv % p for x in g]
        # f mod g
        f = f[:]
        while len(f) >= len(g) and f:
            coef = f[-1]
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - coef * gi) % p
            f = trim(f)
        f, g = g, f
    return f


def _cubic_root_count(a2, a4, a6, p):
    """Number of distinct roots in F_p of T^3 + a2 T^2 + a4 T + a6."""
    if p <= 13:
        return sum(1 for x in range(p) if (x ** 3 + a2 * x * x + a4 * x + a6) % p == 0)
    # deg gcd(T^p - T, P) counts the rational roots
    mod = [a6 % p, a4 % p, a2 % p, 1]

    def mulmod(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            if fi:
                for j, gj in enumerate(g):
                    out[i + j] = (out[i + j] + fi * gj) % p
        while len(out) >= 4:
            lead = out.pop()
            d = len(out) - 3
            for i in range(3):
                out[d + i] = (out[d + i] - lead * mod[i]) % p
        return out

    # T^p mod P by square and multiply
    result = [1]
    base = [0, 1]
    e = p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    # result - T
    while len(result) < 2:
        result.append(0)
    result[1] = (result[1] - 1) % p
    g = _poly_gcd_mod(result, mod, p)
    return max(len(g) - 1, 0)


def _quad_has_root(qa, qb, qc, p):
    """Whether qa Y^2 + qb Y + qc = 0 has a root in F_p (qa nonzero mod p)."""
    if p == 2:
        return any((qa * y * y + qb * y + qc) % 2 == 0 for y in (0, 1))
    return is_square_mod(qb * qb - 4 * qa * qc, p)


def _singular_point(a, p):
    """The singular point of the reduction mod p, as lifts (r, t)."""
    a1, a2, a3, a4, a6 = a
    if p <= 3:
        for x in range(p):
            for y in range(p):
                on = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                fy = (2 * y + a1 * x + a3) % p
                if on == 0 and fx == 0 and fy == 0:
                    return x, y
        raise AssertionError("no singular point found mod small p")
    b2, b4, b6, _ = _binvs(a)
    # repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6
    g = [b6 % p, 2 * b4 % p, b2 % p, 4 % p]
    dg = [2 * b4 % p, 2 * b2 % p, 12 % p]
    h = _poly_gcd_mod(g, dg, p)
    if len(h) == 2:  # monic linear: x + h0
        x0 = (-h[0]) % p
    elif len(h) == 3:  # (x - x0)^2: monic quadratic
        x0 = (-h[1] * pow(2, -1, p)) % p
    else:
        raise AssertionError("unexpected gcd degree while locating singular point")
    y0 = (-(a1 * x0 + a3) * pow(2, -1, p)) % p
    return x0, y0


def _normalize_for_star(a, p):
    """Translate so that p | a1, a2 and p^2 | a3, a4 and p^3 | a6."""
    if p >= 5:
        s = (-a[0] * pow(2, -1, p)) % p
        a = _translate(a, 0, s, 0)
        t = (-a[2] * pow(2, -1, p * p)) % (p * p)
        a = _translate(a, 0, 0, t)
    else:
        found = None
        for s in range(p):
            for t in range(p * p):
                cand = _translate(a, 0, s, t)
                if (
                    cand[0] % p == 0
                    and cand[1] % p == 0
                    and cand[2] % (p * p) == 0
                    and cand[3] % (p * p) == 0
                    and cand[4] % (p ** 3) == 0
                ):
                    found = cand
                    break
            if found:
                break
        if found is None:
            raise AssertionError("step-6 normalization failed")
        a = found
    assert a[0] % p == 0 and a[1] % p == 0
    assert a[2] % (p * p) == 0 and a[3] % (p * p) == 0 and a[4] % p ** 3 == 0
    return a


def tate_local(c, p):
    """Kodaira type, conductor exponent and Tamagawa number of c at p.

    The model must be integral and minimal at p; NotMinimalAtP otherwise.
    """
    if not c.is_integral():
        raise NotMinimalAtP(f"model {c.ainvs()} is not integral")
    a = tuple(int(x) for x in c.ainvs())
    disc = _disc_of(a)
    n = _val(disc, p)
    if n == 0:
        return LocalReduction(p, "I0", 0, 0, 1)

    r0, t0 = _singular_point(a, p)
    a = _translate(a, r0, 0, t0)
    b2, b4, b6, b8 = _binvs(a)
    assert a[2] % p == 0 and a[3] % p == 0 and a[4] % p == 0

    if b2 % p != 0:
        # multiplicative: tangent directions from T^2 + a1 T - a2
        split = _quad_has_root(1, a[0], -a[1], p)
        c_tam = n if split else (2 if n % 2 == 0 else 1)
        return LocalReduction(p, f"I{n}", n, 1, c_tam, split)

    if _val(a[4], p) < 2:
        return LocalReduction(p, "II", n, n, 1)
    if _val(b8, p) < 3:
        return LocalReduction(p, "III", n, n - 1, 2)
    if _val(b6, p) < 3:
        a3p = a[2] // p
        a6p2 = a[4] // (p * p)
        c_tam = 3 if _quad_has_root(1, a3p, -a6p2, p) else 1
        return LocalReduction(p, "IV", n, n - 2, c_tam)

    a = _normalize_for_star(a, p)
    # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p
    pa2 = (a[1] // p) % p
    pa4 = (a[3] // (p * p)) % p
    pa6 = (a[4] // p ** 3) % p
    gcd_deg = len(_poly_gcd_mod([pa6, pa4, pa2, 1], [pa4, 2 * pa2, 3], p)) - 1

    if gcd_deg <= 0:
        c_tam = 1 + _cubic_root_count(pa2, pa4, pa6, p)
        return LocalReduction(p, "I0*", n, n - 4, c_tam)

    if p == 2:
        # (T - b)^3 = T^3 + b T^2 + b T + b over F_2
        triple = pa2 == pa4 == pa6
    elif p == 3:
        # (T - b)^3 = T^3 - b^3 over F_3
        triple = pa2 % 3 == 0 and pa4 % 3 == 0
    else:
        triple = gcd_deg == 2

    if not triple:
        # move the double root of P to zero, then walk the I_m* chain
        if p == 2:
            beta = next(
                x
                for x in range(2)
                if (x ** 3 + pa2 * x * x + pa4 * x + pa6) % 2 == 0
                and (3 * x * x + 2 * pa2 * x + pa4) % 2 == 0
            )
        elif p == 3:
            beta = next(
                x
                for x in range(3)
                if (x ** 3 + pa2 * x * x + pa4 * x + pa6) % 3 == 0
                and (2 * pa2 * x + pa4) % 3 == 0
            )
        else:
            h = _poly_gcd_mod([pa6, pa4, pa2, 1], [pa4, 2 * pa2, 3], p)
            beta = (-h[0]) % p
        a = _translate(a, p * beta, 0, 0)
        assert _val(a[1], p) == 1 and _val(a[2], p) >= 2
        assert _val(a[3], p) >= 3 and _val(a[4], p) >= 4
        mx = my = p * p
        m_idx = 1
        while True:
            a3q = a[2] // my
            a6q = a[4] // (mx * my)
            if (a3q * a3q + 4 * a6q) % p != 0:
                c_tam = 4 if _quad_has_root(1, a3q, -a6q, p) else 2
                break
            gamma = a6q % 2 if p == 2 else (-a3q * pow(2, -1, p)) % p
            a = _translate(a, 0, 0, my * gamma)
            my *= p
            m_idx += 1
            a2q = a[1] // p
            a4q = a[3] // (p * mx)
            a6q = a[4] // (mx * my)
            if (a4q * a4q - 4 * a2q * a6q) % p != 0:
                c_tam = 4 if _quad_has_root(a2q, a4q, a6q, p) else 2
                break
            eta = a6q % 2 if p == 2 else (-a4q * pow(2 * a2q, -1, p)) % p
            a = _translate(a, mx * eta, 0, 0)
            mx *= p
            m_idx += 1
        return LocalReduction(p, f"I{m_idx}*", n, n - 4 - m_idx, c_tam)

    # triple root: center it at zero
    if p == 3:
        beta = (-pa6) % 3
    elif p == 2:
        beta = pa2 % 2
    else:
        beta = (-pa2 * pow(3, -1, p)) % p
    a = _translate(a, p * beta, 0, 0)
    assert _val(a[1], p) >= 2 and _val(a[3], p) >= 3 and _val(a[4], p) >= 4

    a3q = a[2] // (p * p)
    a6q = a[4] // p ** 4
    if (a3q * a3q + 4 * a6q) % p != 0:
        c_tam = 3 if _quad_has_root(1, a3q, -a6q, p) else 1
        return LocalReduction(p, "IV*", n, n - 6, c_tam)

    gamma = a6q % 2 if p == 2 else (-a3q * pow(2, -1, p)) % p
    a = _translate(a, 0, 0, p * p * gamma)
    assert _val(a[2], p) >= 3

    if _val(a[3], p) < 4:
        return LocalReduction(p, "III*", n, n - 7, 2)
    if _val(a[4], p) < 6:
        return LocalReduction(p, "II*", n, n - 8, 1)
    raise NotMinimalAtP(f"model {c.ainvs()} is not minimal at {p}")


def local_data(c):
    """LocalReduction at every bad prime of the minimal model of c."""
    return list(c.reductions)


def conductor(c):
    """The conductor N = prod p^{f_p}, computed from the minimal model."""
    return math.prod(red.p ** red.f for red in c.reductions)


def szpiro_quotient(c):
    """sigma = log|disc_min| / log N, with sigma = 1 when either log is zero."""
    d = abs(int(c.minimal[0].disc))
    n = conductor(c)
    if d == 1 or n == 1:
        return 1.0
    return log_int(d) / log_int(n)


# ---------------------------------------------------------------------------
# height-type invariants of the curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantHeights:
    h_delta: float
    h_j: float
    h_e: float  # max(h_delta, h_j) / 12
    h: float  # max(1, h_j)


def rational_height(q):
    """log max(|numerator|, denominator) of a rational in lowest terms."""
    q = Fraction(q)
    return log_int(max(abs(q.numerator), q.denominator)) if q != 0 else 0.0


def invariant_heights(c):
    """Naive heights of disc and j, and the derived curve heights."""
    cmin = c.minimal[0]
    h_delta = log_int(abs(int(cmin.disc)))
    h_j = rational_height(cmin.j)
    return InvariantHeights(h_delta, h_j, max(h_delta, h_j) / 12.0, max(1.0, h_j))


def h_v_archimedean(c):
    """Archimedean local curve height max(log|j|, sqrt(3)/2)."""
    rho = math.sqrt(3) / 2
    j = c.j
    if j == 0:
        return rho
    logj = log_int(abs(j.numerator)) - log_int(j.denominator)
    return max(logj, rho)


# ---------------------------------------------------------------------------
# certified bound for sup |F| over the real line, where
# F(x) = log max(|phi(x)|, |delta(x)|) - 4 log max(|x|, 1) and phi/delta is
# the x-coordinate duplication map (the height series in heights sums F)
# ---------------------------------------------------------------------------


def _solve_fraction_system(mat, rhs):
    """Exact Gaussian elimination; mat is n x n of Fractions."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise AssertionError("singular system in Bezout solve")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _bezout_one_norms(pcoef, qcoef):
    """(sum|u_i|, sum|v_j|) for u p + v q = 1 with deg u < deg q, deg v < deg p."""
    dp = len(pcoef) - 1
    dq = len(qcoef) - 1
    n = dp + dq
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j in range(dq):  # columns for u_j, multiplying p
        for i, pi in enumerate(pcoef):
            mat[i + j][j] = Fraction(pi)
    for k in range(dp):  # columns for v_k, multiplying q
        for i, qi in enumerate(qcoef):
            mat[i + k][dq + k] = Fraction(qi)
    rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
    sol = _solve_fraction_system(mat, rhs)
    u_norm = sum(abs(x) for x in sol[:dq])
    v_norm = sum(abs(x) for x in sol[dq:])
    return u_norm, v_norm


def _f_sup_bound(b2, b4, b6, b8):
    """Certified upper bound for sup_x |F(x)| from exact Bezout cofactors."""
    phi = [-b8, -2 * b6, -b4, 0, 1]
    dlt = [b6, 2 * b4, b2, 4]
    u1, v1 = _bezout_one_norms(phi, dlt)
    m_near = Fraction(1) / (u1 + v1)  # |x| <= 1

    # |x| >= 1 via t = 1/x: z(t) = t^4 phi(1/t), w(t) = t^3 delta(1/t)
    z = [1, 0, -b4, -2 * b6, -b8]
    w = [4, b2, 2 * b4, b6]
    u2, v2 = _bezout_one_norms(z, w)
    k = abs(b4) + 2 * abs(b6) + abs(b8)
    t_cut = Fraction(1) if k == 0 else Fraction(1, math.isqrt(2 * k) + 1)
    m_far = Fraction(1) / (u2 + v2 / t_cut)  # t_cut <= |t| <= 1
    m_low = min(m_near, m_far, Fraction(1, 2))  # |t| <= t_cut: |z| >= 1/2

    m_high = max(1 + k, 4 + abs(b2) + 2 * abs(b4) + abs(b6))
    lo = float(m_low) * (1 - 1e-9)
    hi = float(m_high) * (1 + 1e-9)
    return max(math.log(hi), -math.log(lo), 1.0)
