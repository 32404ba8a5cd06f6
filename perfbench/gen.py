"""Seeded input generator for the three benchmark workloads.

Every input comes from ``random.Random(f"{workload}:{seed}:{round}")``, so
a seed fixes the inputs of every round.  Curves are fitted through chosen
integral points: the Weierstrass equation is linear in a1..a6, so r points
and 5 - r chosen coefficients determine the curve, and the points lie on it
by construction.  Torsion and dependent points are recognised with the
reference arithmetic in ``ref.py``, never with the package under test.

Rounds of a run are made in order by one ``Generator``, which keeps the
j-invariants of the curves used so far: in ``catalog`` and ``high_rank`` a
curve whose j-invariant an earlier row of the run has is drawn again, so no
two curves of a run are isomorphic.

A round is ``(records, meta)``: ``records`` are dataset rows in the
package's JSON-lines format, ``meta`` holds, per row, what the generator
knows about it (its kind, its oracle heights and the order of a known
torsion point), for the output checks.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

import ref

NAMES = ("a1", "a2", "a3", "a4", "a6")

# Catalog rounds follow the one sample in the repository of a table users
# sweep, the bundled src/ellreg/data/curves.jsonl.  Of its 21 rows of rank
# 0-2, 6 have rank 0, all with nontrivial torsion (orders 5, 6, 8, 3, 4, 6);
# 13 have rank 1, one of them with a point of order 2; 2 have rank 2.  A
# round holds twice that: 12 rank-0 curves with a point of those orders
# (order 2 in place of 8, see SQUARE_DIVISOR_CAP), 24 fitted rank-1 curves,
# 2 rank-1 curves with a point of order 2 or 3, and 4 fitted rank-2 curves.
# Then come 2 rows whose generators are dependent (P and -P; they must end
# in DegenerateLattice) and 2 rows whose one generator is a torsion point.  P and 2P would do as well, but its three heights of
# P, 2P and 3P make those rows the slowest and most varied of the round,
# and then they alone decide the latency tail.
CATALOG_MIX = (
    ("rank0", 12), ("rank1", 24), ("rank1_torsion", 2), ("rank2", 4), ("dependent", 2), ("torsion_gen", 2),
)
RANK0_ORDERS = (5, 6, 2, 3, 4, 6)
# A rational torsion search that tries each square divisor of 6^12 disc
# costs in proportion to their number.  The bundled curves with torsion
# have at most 147; fitted curves with 8-torsion mostly have thousands and
# take seconds each (see CHANGES.md), and so few stay under the cap (27
# with t = n/d, |n| <= 150, d <= 20) that a run would exhaust them, so the
# rank-0 rows use order 2 where the bundled set has 8.  Rows built around a
# torsion point keep at most SQUARE_DIVISOR_CAP square divisors of the
# integral model's 6^12 disc.  The slowest rank-0 rows make the latency
# tail, so the count is stratified: the first half of a round's rank-0 rows
# keep at most SQUARE_DIVISOR_SPLIT, the second half more than that, and
# every round has the same share of costly searches whatever the seed.  The
# rank-1 rows with torsion keep the lower band.
SQUARE_DIVISOR_SPLIT = 400
SQUARE_DIVISOR_CAP = 800
# Torsion-generator rows come from two fixed families indexed by the round;
# their j-invariants are kept from every other row of a run for this many
# rounds.
TORSION_GEN_ROUNDS = 1000
# High-rank rounds: fitted curves of rank 3, 4 and 5.
HIGH_RANK_MIX = ((3, 3), (4, 3), (5, 1))
# Predicted lattice vectors below the top counting bound 64 * lambda_1^2, per
# rank.  Fitted lattices of one rank land close together, and most of a
# curve's time is this enumeration; the narrow band makes the curves of a
# rank cost nearly the same, so a run's figures vary little with the seed.
HIGH_RANK_COUNT_BAND = {3: (1800, 2500), 4: (18000, 25000), 5: (150000, 195000)}
# Largest product of per-prime Tamagawa bounds a high-rank curve may have:
# far beyond it the exact saturation multiple can take tens of seconds.
HIGH_RANK_TAMAGAWA_CAP = 24
ORACLE_STEPS = 6

# Tall points: the bundled positive-rank curves 389a1, 446d1 and 5077a1 with
# their bundled generators.  A group is P, Q, P+Q, P-Q for coefficient
# vectors whose heights c^T G c put P and Q at x-denominators of about L
# to 1.1 L bits and P+Q, P-Q at about 1.8 L to 2.2 L bits (h(x) is close
# to 2 h^(P)).  The narrow bands keep a round's cost nearly the same from
# seed to seed.
TALL_CURVES = (
    ("389a1", (0, 1, 1, -2, 0), ((0, 0), (1, 0))),
    ("446d1", (1, -1, 0, -4, 4), ((1, 0), (2, 0))),
    ("5077a1", (0, 0, 1, -7, 6), ((-3, 0), (0, 2), (2, 0))),
)
TALL_LEVELS = (24, 24, 48, 96)


def _frac(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _record(label, ainvs, gens):
    return {
        "label": label,
        "ainvs": [_frac(a) for a in ainvs],
        "gens": [[_frac(x), _frac(y)] for x, y in gens],
    }


def _fit(points, fixed):
    """a-invariants through the points, with the coefficients in `fixed` given.

    Each point gives one linear equation
    a1 xy + a3 y - a2 x^2 - a4 x - a6 = x^3 - y^2 in the unknown coefficients.
    Returns None when the system is singular.
    """
    unknown = [n for n in NAMES if n not in fixed]
    rows = []
    for x, y in points:
        coef = {"a1": x * y, "a2": -x * x, "a3": y, "a4": -x, "a6": Fraction(-1)}
        rhs = x ** 3 - y * y - sum(coef[n] * fixed[n] for n in fixed)
        rows.append([Fraction(coef[n]) for n in unknown] + [Fraction(rhs)])
    n = len(unknown)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    sol = dict(fixed)
    sol.update({unknown[i]: rows[i][n] for i in range(n)})
    return tuple(sol[k] for k in NAMES)


def _small_coeff(rng, name):
    if name in ("a1", "a3"):
        return Fraction(rng.randint(0, 1))
    if name == "a2":
        return Fraction(rng.randint(-2, 2))
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6)))


def _new_curve(ainvs, seen):
    """The curve, or None when it is singular or its j-invariant is in `seen`."""
    model = ref.Model(ainvs)
    if model.disc == 0 or model.j in seen:
        return None
    return model


def _fitted_curve(rng, rank, xs, ys, seen):
    """(Model, points) through `rank` random integral points, or None."""
    pts = [(Fraction(x), Fraction(rng.randint(-ys, ys))) for x in rng.sample(range(-xs, xs + 3), rank)]
    fixed = {n: _small_coeff(rng, n) for n in NAMES[: 5 - rank]}
    ainvs = _fit(pts, fixed) if pts else tuple(fixed[n] for n in NAMES)
    if ainvs is None:
        return None
    model = _new_curve(ainvs, seen)
    if model is None or any(ref.is_torsion(model, p) for p in pts):
        return None
    return model, pts


def _square_divisors(model):
    """Square divisors of 6^12 disc of the integral model, None if unfactored."""
    fac = ref.easy_factor(abs(int(ref.Model(model.integral_ainvs()).disc)))
    if fac is None:
        return None
    fac = dict(fac)
    fac[2] = fac.get(2, 0) + 12
    fac[3] = fac.get(3, 0) + 12
    return math.prod(e // 2 + 1 for e in fac.values())


def _square_divisors_within(model, lo, hi):
    count = _square_divisors(model)
    return count is not None and lo < count <= hi


def _point_order(model, pt):
    """The exact order of pt if it is at most 12, else None."""
    acc = pt
    for n in range(1, 13):
        if acc is None:
            return n
        acc = model.add(acc, pt)
    return None


def _independent(vals, errs, factor=8.0):
    """Positive definite with a margin of `factor` times the error norm."""
    m = len(vals)
    if m == 0:
        return True
    ev = np.linalg.eigvalsh(np.array(vals))
    return ev[0] > factor * max(sum(row) for row in errs)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _catalog_row(rng, kind, seen):
    rank = {"rank1": 1, "rank2": 2, "dependent": 1}[kind]
    while True:
        fit = _fitted_curve(rng, rank, 5, 8, seen)
        if fit is None:
            continue
        model, pts = fit
        vals, errs = ref.approx_gram(model, pts, ORACLE_STEPS)
        if not _independent(vals, errs):
            continue
        oracle = [[vals[i][i], errs[i][i]] for i in range(len(pts))]
        if kind == "dependent":
            return model, [pts[0], model.neg(pts[0])], oracle
        return model, pts, oracle


def _torsion_ainvs(n, t, s):
    """a-invariants of a curve on which (0, 0) has order n (2 to 6).

    n = 2: y^2 = x^3 + t x^2 + s x;  n = 3: y^2 + t xy + s y = x^3;  n >= 4:
    Tate's normal form y^2 + (1 - c) xy - b y = x^3 - b x^2 with b, c the
    usual functions of t.
    """
    if n == 2:
        return (0, t, 0, s, 0)
    if n == 3:
        return (t, 0, s, 0, 0)
    b, c = {4: (t, 0), 5: (t, t), 6: (t + t * t, t)}[n]
    return (1 - c, -b, -b, 0, 0)


def _rank0_row(rng, n, band, seen):
    """A curve with a point of order n, no generators, square divisors in band.

    Parameters are drawn from a wide box; the box widens after many draws
    in a row give curves already used, so a long run never runs dry.
    """
    zero = (Fraction(0), Fraction(0))
    for tries in itertools.count():
        span = 60 * (1 + tries // 500)
        t = Fraction(rng.randint(-span, span), rng.randint(1, 8))
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, 8))
        if t == 0:
            continue
        model = _new_curve(_torsion_ainvs(n, t, s), seen)
        if model is not None and _point_order(model, zero) == n and _square_divisors_within(model, *band):
            return model


def _rank1_torsion_row(rng, n, seen):
    """A rank-1 row on a curve with a point of order n = 2 or 3.

    The family of _torsion_ainvs is fitted through a random integral point:
    s is linear in the equation, given t.
    """
    while True:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))
        y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8))
        t = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        if n == 2:
            s = (y * y - x ** 3 - t * x * x) / x
        else:
            s = (x ** 3 - y * y - t * x * y) / y
        model = _new_curve(_torsion_ainvs(n, t, s), seen)
        if model is None or ref.is_torsion(model, (x, y)):
            continue
        if not _square_divisors_within(model, 0, SQUARE_DIVISOR_SPLIT):
            continue
        vals, errs = ref.approx_gram(model, [(x, y)], ORACLE_STEPS)
        if _independent(vals, errs):
            return model, [(x, y)], [[vals[0][0], errs[0][0]]]


@functools.cache
def _torsion_gen_families():
    """Rows r = 0, 1, ... of the two torsion-generator families.

    k = 0: y^2 = x^3 + a x^2 + b x with (0, 0) of order 2.
    k = 1: y^2 + a1 xy + a3 y = x^3 with (0, 0) of order 3.
    The parameters grow with the index, and an index whose curve repeats a
    j-invariant of either family is skipped, so no two rows share one.
    """
    seen = set()
    families = ([], [])
    for k, family in enumerate(families):
        for i in itertools.count():
            if len(family) == TORSION_GEN_ROUNDS:
                break
            ainvs = (0, i % 9 - 4, 0, i + 1, 0) if k == 0 else (i % 4 + 1, 0, i + 1, 0, 0)
            model = _new_curve(ainvs, seen)
            if model is not None:
                assert _point_order(model, (Fraction(0), Fraction(0))) == k + 2
                seen.add(model.j)
                family.append(model)
    return families, frozenset(seen)


def catalog_round(seed, r, seen):
    rng = random.Random(f"catalog:{seed}:{r}")
    records, meta = [], []
    families, _ = _torsion_gen_families()
    for kind, count in CATALOG_MIX:
        for k in range(count):
            label = f"c{r}-{len(records)}"
            order, oracle = None, []
            if kind == "torsion_gen":
                model, pts = families[k][r], [(Fraction(0), Fraction(0))]
            elif kind == "rank0":
                order = RANK0_ORDERS[k % len(RANK0_ORDERS)]
                band = (0, SQUARE_DIVISOR_SPLIT) if 2 * k < count else (SQUARE_DIVISOR_SPLIT, SQUARE_DIVISOR_CAP)
                model, pts = _rank0_row(rng, order, band, seen), []
            elif kind == "rank1_torsion":
                order = 2 + k % 2
                model, pts, oracle = _rank1_torsion_row(rng, order, seen)
            else:
                model, pts, oracle = _catalog_row(rng, kind, seen)
            seen.add(model.j)
            records.append(_record(label, model.ainvs, pts))
            meta.append({"label": label, "kind": kind, "oracle": oracle, "torsion_point_order": order})
    return records, meta


# ---------------------------------------------------------------------------
# high rank
# ---------------------------------------------------------------------------


def _tamagawa_bound(model):
    """Product over bad primes of an upper bound on the Tamagawa number.

    Uses the integral model's c4, c6 and discriminant.  At p >= 5 the
    minimal valuation v follows from how often p^(4,6,12) divides
    (c4, c6, disc); at 2 and 3 one fewer scaling step is assumed, which
    only overestimates.  A type with v <= 1 has c = 1, else c <= max(v, 4).
    Returns None when the discriminant resists a short factorization.
    """
    ints = model.integral_ainvs()
    im = ref.Model(ints)
    c4 = int(im.b2 * im.b2 - 24 * im.b4)
    c6 = int(-im.b2 ** 3 + 36 * im.b2 * im.b4 - 216 * im.b6)
    fac = ref.easy_factor(int(im.disc))
    if fac is None:
        return None
    bound = 1
    for p, v in fac.items():
        d = v // 12
        for val, weight in ((c4, 4), (c6, 6)):
            if val:
                e = 0
                while val % p == 0:
                    val //= p
                    e += 1
                d = min(d, e // weight)
        if p < 5:
            d = max(d - 1, 0)
        v -= 12 * d
        if v >= 2:
            bound *= max(v, 4)
    return bound


def _high_rank_curve(rng, rank, seen):
    lo, hi = HIGH_RANK_COUNT_BAND[rank]
    while True:
        fit = _fitted_curve(rng, rank, 2 if rank == 5 else 3, 6 if rank == 5 else 8, seen)
        if fit is None:
            continue
        model, pts = fit
        tam = _tamagawa_bound(model)
        if tam is None or tam > HIGH_RANK_TAMAGAWA_CAP:
            continue
        # a short orbit first: dependent points show up cheaply
        if np.linalg.eigvalsh(np.array(ref.approx_gram(model, pts, 3)[0]))[0] < 0.02:
            continue
        vals, errs = ref.approx_gram(model, pts, 5)
        if not _independent(vals, errs):
            continue
        lam1 = float(ref.BoxLattice(vals).minima()[0])
        det = float(np.linalg.det(np.array(vals)))
        vol = math.pi ** (rank / 2) / math.gamma(rank / 2 + 1)
        predicted = vol * (64 * lam1) ** (rank / 2) / math.sqrt(det)
        if not lo <= predicted <= hi:
            continue
        return model, pts, [[vals[i][i], errs[i][i]] for i in range(rank)]


def high_rank_round(seed, r, seen):
    rng = random.Random(f"high_rank:{seed}:{r}")
    records, meta = [], []
    for rank, count in HIGH_RANK_MIX:
        for _ in range(count):
            label = f"h{r}-{len(records)}"
            model, pts, oracle = _high_rank_curve(rng, rank, seen)
            seen.add(model.j)
            records.append(_record(label, model.ainvs, pts))
            meta.append({"label": label, "kind": f"rank{rank}", "oracle": oracle})
    return records, meta


# ---------------------------------------------------------------------------
# tall points
# ---------------------------------------------------------------------------

@functools.cache
def _tall_curve(i):
    label, ainvs, gens = TALL_CURVES[i]
    model = ref.Model(ainvs)
    gens = [(Fraction(x), Fraction(y)) for x, y in gens]
    return label, model, gens, np.array(ref.approx_gram(model, gens, 6)[0])


def _tall_group(rng, i, level):
    """Coefficient vectors and points P, Q, P+Q, P-Q of the wanted sizes."""
    label, model, gens, gram = _tall_curve(i)
    m = len(gens)
    want = level * math.log(2) / 2
    span = int(math.sqrt(1.2 * want / np.linalg.eigvalsh(gram)[0])) + 1

    def height(c):
        return float(np.array(c) @ gram @ np.array(c))

    def pick():
        while True:
            c = [rng.randint(-span, span) for _ in range(m)]
            if want <= height(c) <= 1.1 * want:
                return c

    while True:
        cp, cq = pick(), pick()
        cs = [a + b for a, b in zip(cp, cq)]
        cd = [a - b for a, b in zip(cp, cq)]
        if all(1.8 * want <= height(c) <= 2.2 * want for c in (cs, cd)):
            break
    p, q = model.combo(cp, gens), model.combo(cq, gens)
    pts = [p, q, model.add(p, q), model.add(p, model.neg(q))]
    return label, model, pts, [cp, cq, cs, cd]


def tall_points_round(seed, r, seen):
    """Curves repeat here by design; `seen` is not used."""
    rng = random.Random(f"tall_points:{seed}:{r}")
    records, meta = [], []
    for k, level in enumerate(TALL_LEVELS):
        curve_label, model, pts, coeffs = _tall_group(rng, (r + k) % len(TALL_CURVES), level)
        label = f"t{r}-{k}-{curve_label}"
        records.append(_record(label, model.ainvs, pts))
        meta.append({"label": label, "kind": "group", "curve": curve_label, "coeffs": coeffs})
    return records, meta


ROUNDS = {
    "catalog": catalog_round,
    "high_rank": high_rank_round,
    "tall_points": tall_points_round,
}


class Generator:
    """The rounds of one workload and seed, written in order."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.rounds = 0
        # j-invariants used so far in the run
        self.seen = set(_torsion_gen_families()[1]) if workload == "catalog" else set()

    def write(self, out, r):
        """Write round r's dataset (in-r.jsonl) and notes (meta-r.json), once."""
        while self.rounds <= r:
            records, meta = ROUNDS[self.workload](self.seed, self.rounds, self.seen)
            with open(out / f"in-{self.rounds}.jsonl", "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(rec) + "\n" for rec in records)
            with open(out / f"meta-{self.rounds}.json", "w", encoding="utf-8") as handle:
                json.dump(meta, handle)
            self.rounds += 1
