"""Certificate layer tests: statuses, floors, exact exponents, ratios."""

import math
import random
from fractions import Fraction

import pytest

from ellreg.certificates import (
    FAIL,
    INDETERMINATE,
    PASS,
    BoundParams,
    Certificate,
    RatioReport,
    david_exponent,
    exponent_sum,
    gamma_inequality,
    hs_height_floor,
    ideal_norm_floor,
    ideal_norm_rhs,
    minima_floor,
    minkowski_certificate,
    reg_floor_corollary,
    stored_c0,
    szpiro_reg_floor,
    theorem1_ratio,
    vdc_lattice_check,
    vdc_reg_floor,
)
from ellreg.heights import gram_from_matrix
from ellreg.lattice import CountingPair, count_below, regulator_L, successive_minima


def _int_det(b):
    from fractions import Fraction as F

    a = [[F(x) for x in row] for row in b]
    n = len(a)
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for cc in range(col, n):
                a[r][cc] -= f * a[col][cc]
    return det


def random_pd_gram(rng, m, spread=4):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(m)] for _ in range(m)]
        if _int_det(b) == 0:
            continue
        g = [[float(sum(b[k][i] * b[k][j] for k in range(m))) for j in range(m)]
             for i in range(m)]
        return gram_from_matrix(g)


class TestCertificateType:
    def test_status_consistency_enforced(self):
        Certificate("ok", 2.0, 1.0, 1.0, 1e-9, PASS)
        with pytest.raises(ValueError):
            Certificate("bad", 2.0, 1.0, 1.0, 1e-9, FAIL)
        with pytest.raises(ValueError):
            Certificate("bad", 1.0, 2.0, -1.0, 1e-9, PASS)
        with pytest.raises(ValueError):
            Certificate("bad", 1.0, 1.0, 0.0, -1e-9, INDETERMINATE)

    def test_indeterminate_band(self):
        c = Certificate("tie", 1.0, 1.0, 0.0, 1e-12, INDETERMINATE)
        assert c.status == INDETERMINATE


class TestGammaInequality:
    def test_equality_at_one(self):
        c = gamma_inequality(1)
        assert c.status == INDETERMINATE
        assert c.note == "equality, consistent"
        assert abs(c.lhs - math.sqrt(math.pi)) < 1e-15

    def test_rank_two(self):
        c = gamma_inequality(2)
        assert c.status == PASS
        assert abs(c.lhs - 4.0) < 1e-12 and abs(c.rhs - 2 * math.pi) < 1e-12

    def test_rank_four(self):
        c = gamma_inequality(4)
        assert c.status == PASS
        assert abs(c.lhs - 32.0) < 1e-10
        assert abs(c.rhs - 16 * math.pi**2) < 1e-10

    def test_sweep_to_fifty(self):
        for m in range(2, 51):
            assert gamma_inequality(m).status == PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_inequality(0)


def _minkowski(g):
    return minkowski_certificate(successive_minima(g), regulator_L(g))


def _vdc(g, H):
    return vdc_lattice_check(count_below(g, H, include_zero=True), g.m, regulator_L(g))


class TestMinkowski:
    def test_identity_two(self):
        g = gram_from_matrix([[1.0, 0.0], [0.0, 1.0]])
        weak, sharp = _minkowski(g)
        assert weak.status == PASS and abs(weak.rhs - 2.0) < 1e-12
        assert sharp.status == PASS and abs(sharp.rhs - 4 / math.pi) < 1e-12
        assert weak.lhs == sharp.lhs == 1.0

    def test_rank_one_equality(self):
        g = gram_from_matrix([[0.25]])
        weak, sharp = _minkowski(g)
        assert weak.status == INDETERMINATE and weak.note == "equality, consistent"
        assert sharp.status == INDETERMINATE

    def test_random_lattices_pass(self):
        rng = random.Random(13371337)
        for _ in range(20):
            m = rng.choice((2, 3, 4, 5))
            g = random_pd_gram(rng, m, spread=3)
            weak, sharp = _minkowski(g)
            assert weak.status == PASS
            assert sharp.status == PASS
            # the sharp constant is smaller, hence the sharper bound
            assert sharp.rhs <= weak.rhs + 1e-12


class TestVdcLatticeCheck:
    def test_identity_example(self):
        g = gram_from_matrix([[1.0, 0.0], [0.0, 1.0]])
        c = _vdc(g, 4.0)
        assert c.status == PASS
        assert c.lhs == 13.0
        assert abs(c.rhs - math.pi) < 1e-12

    def test_small_bound(self):
        g = gram_from_matrix([[1.0, 0.0], [0.0, 1.0]])
        c = _vdc(g, 1e-12)
        assert c.status == PASS and c.lhs >= 1.0

    def test_random_property(self):
        rng = random.Random(246810)
        for _ in range(15):
            m = rng.choice((1, 2, 3, 4))
            g = random_pd_gram(rng, m, spread=3)
            hmax = max(g.values[i][i] for i in range(m))
            for h in (0.5, 1.0 * hmax, 3.0 * hmax):
                assert _vdc(g, h).status == PASS


class TestCountingFloors:
    def test_minima_floor_arithmetic(self):
        assert abs(minima_floor(CountingPair(1.0, 5), 1) - 0.04) < 1e-15

    def test_minima_floor_identity_example(self):
        g = gram_from_matrix([[1.0, 0.0], [0.0, 1.0]])
        hc = count_below(g, 4.0, include_zero=True)
        assert hc.C == 13
        floor, cert = minima_floor(hc, 2, observed_sq=1.0)
        assert abs(floor - 4.0 / 52.0) < 1e-12
        assert cert.status == PASS

    def test_minima_floor_at_first_minimum(self):
        hc = CountingPair(1.0, 3)
        floor, cert = minima_floor(hc, 1, observed_sq=1.0)
        assert floor <= 1.0 and cert.status == PASS

    def test_reg_floor_corollary_rank_one(self):
        assert abs(reg_floor_corollary(2.0, 5, 1) - 2.0 / 25.0) < 1e-15

    def test_reg_floor_corollary_example(self):
        floor = reg_floor_corollary(1.0, 5, 2)
        assert abs(floor - 5e-4) < 1e-15
        _, cert = reg_floor_corollary(1.0, 5, 2, observed_reg=1.0)
        assert cert.status == PASS

    def test_vdc_reg_floor_example(self):
        assert abs(vdc_reg_floor(1.0, 5, 2, 1) - 0.01) < 1e-15
        assert vdc_reg_floor(1.0, 5, 2, 1) > reg_floor_corollary(1.0, 5, 2)
        assert abs(vdc_reg_floor(1.0, 5, 2, 2) - 0.04) < 1e-15

    def test_vdc_always_at_least_corollary(self):
        rng = random.Random(11235)
        for _ in range(300):
            h = rng.uniform(0.01, 100.0)
            c = rng.randint(1, 10**6)
            m = rng.randint(1, 8)
            assert vdc_reg_floor(h, c, m, 1) >= reg_floor_corollary(h, c, m) - 1e-18

    def test_floor_certificates_on_real_lattice(self):
        g = gram_from_matrix([[4.0, 2.0], [2.0, 3.0]])
        reg = regulator_L(g).value
        prof = successive_minima(g)
        h = prof.values[0]
        hc = count_below(g, h, include_zero=True)
        for i in (1, 2):
            _, cert = minima_floor(hc, i, observed_sq=prof.values[i - 1])
            assert cert.status == PASS
        _, c1 = reg_floor_corollary(h, hc.C, 2, observed_reg=reg)
        _, c2 = vdc_reg_floor(h, hc.C, 2, 1, observed_reg=reg)
        assert c1.status == PASS and c2.status == PASS


class TestHeightFloors:
    def test_hs_unit_curve(self):
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=1.0, h=1.0)
        assert abs(hs_height_floor(p) - 20.0**-8 * 1e-4) < 1e-28

    def test_hs_example_curve(self):
        h_e = math.log(110592) / 12
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=h_e, h=math.log(110592))
        floor, cert = hs_height_floor(p, observed_sq=0.0255557041199844)
        assert abs(floor - 3.780469737214737e-15) < 1e-26
        assert cert.status == PASS

    def test_hs_monotone_in_sigma(self):
        lo = hs_height_floor(BoundParams(d=1, m=1, sigma=1.5, h_e=1.0))
        hi = hs_height_floor(BoundParams(d=1, m=1, sigma=1.0, h_e=1.0))
        assert lo < hi

    def test_hs_validation(self):
        with pytest.raises(ValueError):
            hs_height_floor(BoundParams(d=1, m=1, sigma=0.5, h_e=1.0))
        with pytest.raises(ValueError):
            hs_height_floor(BoundParams(d=1, m=1, sigma=1.0, h_e=0.0))

    def test_szpiro_rank_one_collapse(self):
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=0.9678)
        assert szpiro_reg_floor(p) == hs_height_floor(p)

    def test_szpiro_rank_two(self):
        p = BoundParams(d=1, m=2, sigma=1.0, h_e=1.0)
        assert abs(szpiro_reg_floor(p) - 3.814697265625e-30) < 1e-41

    def test_szpiro_certificate(self):
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=0.9678)
        _, cert = szpiro_reg_floor(p, observed_reg=0.0255557)
        assert cert.status == PASS


class TestExponents:
    def test_exact_values(self):
        assert david_exponent(5) == Fraction(1, 120)
        assert david_exponent(1) == Fraction(-7, 8)
        assert isinstance(david_exponent(5), Fraction)

    def test_sign_threshold(self):
        for i in range(1, 41):
            assert (david_exponent(i) >= 0) == (i >= 5)

    def test_partial_sums(self):
        s16 = exponent_sum(1, 16)
        s15 = exponent_sum(1, 15)
        assert s16 == Fraction(91969, 9801792)
        assert s16 >= Fraction(9, 1000)
        assert s15 == Fraction(-94219, 576576)
        assert s15 <= Fraction(-16, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            david_exponent(0)
        with pytest.raises(ValueError):
            exponent_sum(3, 2)


class TestIdealNormFloor:
    def test_empty_is_equality(self):
        c = ideal_norm_floor(0, 1, 0.630929)
        assert c.status == INDETERMINATE and "exact equality" in c.note

    def test_single_prime(self):
        c = ideal_norm_floor(1, 1, 0.63)
        assert c.status == PASS
        assert abs(c.lhs - math.log(2)) < 1e-12
        assert abs(c.rhs - 0.63 * math.log(3)) < 1e-12

    def test_stored_constant_passes(self):
        fix = stored_c0()
        assert fix["c0"] == 0.630929
        assert fix["argmin_S"] == 1
        for s in (1, 2, 10, 100, 5000, 100000):
            assert ideal_norm_floor(s, 1, fix["c0"]).status == PASS

    def test_larger_constant_fails(self):
        assert ideal_norm_floor(1, 1, 0.75).status == FAIL

    def test_general_degree_exposed_not_verified(self):
        assert abs(ideal_norm_rhs(10, 2, 0.5) - 0.5 * 10 * math.log(7)) < 1e-12
        with pytest.raises(ValueError):
            ideal_norm_floor(10, 2, 0.5)


class TestTheoremRatios:
    def test_rank_four_shape(self):
        p = BoundParams(d=1, m=4, sigma=1.0, h_e=1.0, h=7.0)
        r = theorem1_ratio(p, reg=1.0)
        assert abs(r.rhs_shape - math.log(21.0) ** (10 / 3)) < 1e-12

    def test_example_curve(self):
        h = 11.6136
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=h / 12, h=h)
        r = theorem1_ratio(p, reg=0.0511114)
        want = 0.0511114 / (h**-1 * math.log(3 * h) ** (4 / 3))
        assert abs(r.ratio - want) < 1e-12
        assert r.lhs == 0.0511114

    def test_positivity(self):
        p = BoundParams(d=1, m=2, sigma=1.2, h_e=2.0, h=9.0, tors=3)
        r = theorem1_ratio(p, reg=0.37)
        assert r.ratio > 0 and r.ce_ratio > 0
        assert isinstance(r, RatioReport)

    def test_validation(self):
        p = BoundParams(d=1, m=1, sigma=1.0, h_e=1.0, h=0.5)
        with pytest.raises(ValueError):
            theorem1_ratio(p, reg=1.0)
        with pytest.raises(ValueError):
            theorem1_ratio(BoundParams(d=1, m=0), reg=1.0)


class TestBoundParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundParams(d=0)
        with pytest.raises(ValueError):
            BoundParams(m=-1)
        with pytest.raises(ValueError):
            BoundParams(S=-2)
        with pytest.raises(ValueError):
            BoundParams(tors=0)
        with pytest.raises(ValueError):
            BoundParams(h=math.inf)
