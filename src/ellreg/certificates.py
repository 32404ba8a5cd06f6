"""Machine-checked inequality certificates for height and regulator bounds.

Every check is reported as a Certificate with explicit lhs, rhs, signed
margin, and an error budget bounding the rounding error of both sides.
PASS and FAIL are only declared when the margin clears the budget; exact
equalities (which arise by design in a few places, e.g. the gamma
inequality at rank 1) are INDETERMINATE with an explanatory note.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .primes import primes_up_to

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a single inequality check with interval semantics."""

    name: str
    lhs: float
    rhs: float
    margin: float
    err_budget: float
    status: str
    note: str = ""

    def __post_init__(self):
        if self.err_budget < 0:
            raise ValueError("error budget must be nonnegative")
        want = _status(self.margin, self.err_budget)
        if self.status != want:
            raise ValueError(f"status {self.status} inconsistent with margin")


def _status(margin, err_budget):
    if margin > err_budget:
        return PASS
    if margin < -err_budget:
        return FAIL
    return INDETERMINATE


def _cert_lower(name, lhs, rhs, err_budget, note=""):
    """Certificate for the claim lhs >= rhs."""
    margin = lhs - rhs
    return Certificate(
        name, float(lhs), float(rhs), float(margin), float(err_budget),
        _status(margin, err_budget), note,
    )


def _cert_upper(name, lhs, rhs, err_budget, note=""):
    """Certificate for the claim lhs <= rhs."""
    margin = rhs - lhs
    return Certificate(
        name, float(lhs), float(rhs), float(margin), float(err_budget),
        _status(margin, err_budget), note,
    )


@dataclass(frozen=True)
class BoundParams:
    """Per-curve scalar inputs consumed by the explicit floor formulas."""

    d: int = 1
    m: int = 0
    sigma: float = 1.0
    h_e: float = 0.0
    h: float = 1.0
    S: int = 0
    tors: int = 1

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError("field degree must be a positive integer")
        if int(self.m) != self.m or self.m < 0:
            raise ValueError("rank must be a nonnegative integer")
        if int(self.S) != self.S or self.S < 0:
            raise ValueError("place count must be a nonnegative integer")
        if int(self.tors) != self.tors or self.tors < 1:
            raise ValueError("torsion order must be a positive integer")
        for v in (self.sigma, self.h_e, self.h):
            if not math.isfinite(v):
                raise ValueError("parameters must be finite")


# ---------------------------------------------------------------------------
# Minkowski and volume bounds
# ---------------------------------------------------------------------------


def minkowski_certificate(profile, reg):
    """Both successive-minima product bounds; returns (weak, sharp).

    weak:  prod(lambda_i) <= m^(m/2) * sqrt(Reg_L)
    sharp: prod(lambda_i) <= 2^m * Gamma(m/2 + 1) * pi^(-m/2) * sqrt(Reg_L)
    profile is the measured MinimaProfile and reg the regulator_L
    HeightValue of the same lattice.  At rank 1 both are exact equalities
    and certify as INDETERMINATE.
    """
    m = len(profile.values)
    if m == 0:
        raise ValueError("Minkowski bounds need positive rank")
    prod_sq = 1.0
    for v in profile.values:
        prod_sq *= v
    lhs = math.sqrt(prod_sq)
    root = math.sqrt(reg.value)
    rel = 0.5 * reg.err / reg.value if reg.value > 0 else 0.0
    note = "equality, consistent" if m == 1 else ""
    out = []
    for name, factor in (
        ("minkowski_weak", m ** (m / 2)),
        ("minkowski_sharp", 2**m * math.gamma(m / 2 + 1) * math.pi ** (-m / 2)),
    ):
        rhs = factor * root
        budget = rhs * rel + 1e-13 * (abs(lhs) + abs(rhs))
        out.append(_cert_upper(name, lhs, rhs, budget, note))
    return tuple(out)


def gamma_inequality(m):
    """Check 2^m * Gamma(m/2 + 1) <= (pi*m)^(m/2); equality at m = 1."""
    if m < 1 or int(m) != m:
        raise ValueError("rank must be a positive integer")
    lhs = 2**m * math.gamma(m / 2 + 1)
    rhs = (math.pi * m) ** (m / 2)
    budget = 1e-13 * (abs(lhs) + abs(rhs))
    note = "equality, consistent" if m == 1 else ""
    return _cert_upper("gamma_inequality", lhs, rhs, budget, note)


def vdc_lattice_check(hc, m, reg):
    """Volume floor on the exact count: N(H) including zero is at least
    pi^(m/2) H^(m/2) / (Gamma(m/2+1) 2^m sqrt(Reg_L)).

    hc is the measured CountingPair (zero included) of a rank-m lattice
    whose regulator_L HeightValue is reg.
    """
    H, n = hc.H, hc.C
    root = math.sqrt(reg.value)
    floor = math.pi ** (m / 2) * H ** (m / 2) / (math.gamma(m / 2 + 1) * 2**m * root)
    budget = floor * (0.5 * reg.err / reg.value) + 1e-13 * (n + floor)
    return _cert_lower("vdc_lattice_check", float(n), floor, budget)


# ---------------------------------------------------------------------------
# floors from counting data
# ---------------------------------------------------------------------------


def minima_floor(hc, i, observed_sq=None):
    """Floor on the i-th squared minimum from a counting pair:
    lambda_i^2 >= H / (i^2 * C^(2/i)).

    Returns the floor, or (floor, Certificate) when the measured squared
    minimum is supplied.
    """
    if i < 1 or int(i) != i:
        raise ValueError("index must be a positive integer")
    if hc.C < 1:
        raise ValueError("count must be at least 1 (the zero vector)")
    floor = hc.H / (i * i * hc.C ** (2.0 / i))
    if observed_sq is None:
        return floor
    budget = 1e-13 * (abs(observed_sq) + floor)
    return floor, _cert_lower(f"minima_floor[{int(i)}]", observed_sq, floor, budget)


def reg_floor_corollary(H, C, m, observed_reg=None):
    """Regulator floor combining the minima floors over i = 1..m:
    Reg_L >= H^m / (m^m * (m!)^2) * prod_i C^(-2/i).
    """
    if m < 1 or int(m) != m:
        raise ValueError("rank must be a positive integer")
    if C < 1:
        raise ValueError("count must be at least 1")
    if H < 0:
        raise ValueError("height bound must be nonnegative")
    prod = 1.0
    for i in range(1, m + 1):
        prod *= C ** (2.0 / i)
    floor = H**m / (m**m * math.factorial(m) ** 2 * prod)
    if observed_reg is None:
        return floor
    budget = 1e-13 * (abs(observed_reg) + floor)
    return floor, _cert_lower("reg_floor_corollary", observed_reg, floor, budget)


def vdc_reg_floor(H, C, m, tors=1, observed_reg=None):
    """Sharper volume-based regulator floor: Reg_L >= H^m/(m^m C^2) * tors^2
    when C counts curve points; tors = 1 gives the plain lattice form.
    Always at least as strong as reg_floor_corollary.
    """
    if m < 1 or int(m) != m:
        raise ValueError("rank must be a positive integer")
    if C < 1:
        raise ValueError("count must be at least 1")
    if H < 0:
        raise ValueError("height bound must be nonnegative")
    if tors < 1 or int(tors) != tors:
        raise ValueError("torsion order must be a positive integer")
    floor = H**m / (m**m * float(C) ** 2) * tors**2
    if observed_reg is None:
        return floor
    budget = 1e-13 * (abs(observed_reg) + floor)
    return floor, _cert_lower("vdc_reg_floor", observed_reg, floor, budget)


# ---------------------------------------------------------------------------
# explicit height floors
# ---------------------------------------------------------------------------


def _hs_floor_value(sigma, d, h_e):
    return (20.0 * sigma) ** (-8 * d) * 10.0 ** (-4.0 * sigma) * h_e


def hs_height_floor(p, observed_sq=None):
    """Non-torsion height floor: h(P) >= (20 sigma)^(-8d) * 10^(-4 sigma) * h_E.

    Returns the floor, or (floor, Certificate) against the measured first
    squared minimum when it is supplied.
    """
    if p.sigma < 1:
        raise ValueError("Szpiro quotient below 1 is out of range")
    if p.h_e <= 0:
        raise ValueError("curve height must be positive")
    floor = _hs_floor_value(p.sigma, p.d, p.h_e)
    if observed_sq is None:
        return floor
    budget = 1e-13 * (abs(observed_sq) + floor)
    return floor, _cert_lower("hs_height_floor", observed_sq, floor, budget)


def szpiro_reg_floor(p, observed_reg=None):
    """Regulator floor from the height floor: Reg_L >= (floor)^m / m^m."""
    if p.m < 1:
        raise ValueError("rank must be positive")
    if p.sigma < 1:
        raise ValueError("Szpiro quotient below 1 is out of range")
    if p.h_e <= 0:
        raise ValueError("curve height must be positive")
    floor = _hs_floor_value(p.sigma, p.d, p.h_e) ** p.m / p.m**p.m
    if observed_reg is None:
        return floor
    budget = 1e-13 * (abs(observed_reg) + floor)
    return floor, _cert_lower("szpiro_reg_floor", observed_reg, floor, budget)


# ---------------------------------------------------------------------------
# exact exponent bookkeeping
# ---------------------------------------------------------------------------


def david_exponent(i):
    """The exact rational exponent (i^2 - 4i - 4) / (4i^2 + 4i)."""
    if i < 1 or int(i) != i:
        raise ValueError("index must be a positive integer")
    i = int(i)
    return Fraction(i * i - 4 * i - 4, 4 * i * i + 4 * i)


def exponent_sum(a, b):
    """Exact partial sum of david_exponent over a <= i <= b."""
    if a < 1 or b < a:
        raise ValueError("need 1 <= a <= b")
    return sum(david_exponent(i) for i in range(int(a), int(b) + 1))


# ---------------------------------------------------------------------------
# smallest-norm ideal floor (degree 1)
# ---------------------------------------------------------------------------

_LOG_PRIME_SUMS = [0.0]


def _cumulative_log_primes(s):
    """Sum of log p over the first s primes, cached incrementally."""
    if s >= len(_LOG_PRIME_SUMS):
        # p_n < n (log n + log log n) for n >= 6; add headroom
        n = max(s, 16)
        hi = int(n * (math.log(n) + math.log(math.log(n)) + 1.1)) + 16
        ps = primes_up_to(hi)
        while len(ps) < s:
            hi *= 2
            ps = primes_up_to(hi)
        sums = [0.0]
        acc = 0.0
        for p in ps:
            acc += math.log(p)
            sums.append(acc)
        _LOG_PRIME_SUMS[:] = sums
    return _LOG_PRIME_SUMS[s]


def ideal_norm_rhs(S, d, c0):
    """The general-degree floor formula c0 * S * log(S/d + 2)."""
    return c0 * S * math.log(S / d + 2.0)


def ideal_norm_floor(S, d, c0):
    """Certificate that the minimal product of S distinct rational primes
    meets the floor c0 * S * log(S + 2).  Only degree 1 is verified; the
    general-degree right-hand side is exposed by ideal_norm_rhs.
    """
    if S < 0 or int(S) != S:
        raise ValueError("place count must be a nonnegative integer")
    if d != 1:
        raise ValueError("only degree 1 is verified; see ideal_norm_rhs")
    S = int(S)
    lhs = _cumulative_log_primes(S)
    rhs = ideal_norm_rhs(S, 1, c0)
    budget = 1e-10 * max(1.0, lhs)
    note = "empty product, exact equality" if S == 0 else ""
    return _cert_lower("ideal_norm_floor", lhs, rhs, budget, note)


def stored_c0():
    """The bundled sieve constant (rounded down, so every floor stays valid)."""
    text = resources.files("ellreg").joinpath("data/ideal_norm_c0.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# ratio reports for statements with unspecified constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Empirical constant estimates for bounds whose constants are unknown.

    ratio estimates the regulator-bound constant from below; ce_ratio
    estimates the counting-constant bound.  Never a PASS or FAIL.
    """

    name: str
    lhs: float
    rhs_shape: float
    ratio: float
    ce: float
    ce_shape: float
    ce_ratio: float


def theorem1_ratio(p, reg):
    """Ratio record for the regulator lower bound of shape
    reg/tors^2 >= c * h^((m-4)/3) * (log 3h)^((2m+2)/3), and for the
    counting-constant upper bound of shape
    c_E <= c' * h^(-(m-4)/6) * (log 3h)^(-(m+1)/3).
    """
    if p.m < 1:
        raise ValueError("rank must be positive")
    if p.h < 1:
        raise ValueError("curve height must be at least 1")
    if reg <= 0:
        raise ValueError("regulator must be positive")
    m, h = p.m, p.h
    lhs = reg / p.tors**2
    rhs_shape = h ** ((m - 4) / 3.0) * math.log(3.0 * h) ** ((2 * m + 2) / 3.0)
    ce = math.pi ** (m / 2) / math.gamma(m / 2 + 1) * p.tors / math.sqrt(reg)
    ce_shape = h ** (-(m - 4) / 6.0) * math.log(3.0 * h) ** (-(m + 1) / 3.0)
    return RatioReport(
        "theorem1_ratio",
        lhs,
        rhs_shape,
        lhs / rhs_shape,
        ce,
        ce_shape,
        ce / ce_shape,
    )
