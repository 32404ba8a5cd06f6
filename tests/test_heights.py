"""Tests for canonical heights, height pairings, and torsion computation.

Reference values were frozen from the doubling-limit oracle in oracles.py
(independent integer-arithmetic evaluation of h(x(2^n P)) / (2 * 4^n)) and
are pinned here with tolerances matching the oracle's tail envelope.
"""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellreg import heights, points
from ellreg.errors import DegenerateLattice, PointNotOnCurve
from ellreg.harness import bundled_dataset_path, ingest
from ellreg.heights import (
    GramLattice,
    HeightValue,
    canonical_height,
    gram_from_matrix,
    gram_matrix,
    pairing,
    torsion_subgroup,
)
from ellreg.points import add, multiply, negate, point
from ellreg.weierstrass import apply_transform, Transform, curve, tate_local
from ellreg.points import map_point

from oracles import (
    doubling_height_sequence,
    oracle_height,
    oracle_saturated_height,
    oracle_torsion_order,
    reduces_to_singular,
)

E37 = curve((0, 0, 1, -1, 0))
E43 = curve((0, 1, 1, 0, 0))
E389 = curve((0, 1, 1, -2, 0))
E5077 = curve((0, 0, 1, -7, 6))
E11 = curve((0, -1, 1, -10, -20))


class TestCanonicalHeight:
    def test_reference_value_37a(self):
        # frozen: half the doubling limit of h(x(2^n P)) for P = (0, 0)
        h = canonical_height(E37, point(0, 0))
        assert abs(h.value - 0.0255557041199844) < 5e-13
        assert 0 <= h.err < 1e-10

    def test_reference_value_43a(self):
        # regression pin; independently confirmed by test_oracle_agreement
        h = canonical_height(E43, point(0, 0))
        assert abs(h.value - 0.031408253543728705) < 1e-12

    def test_oracle_agreement(self):
        cases = [
            (E37, (0, 0)),
            (E43, (0, 0)),
            ((1, -1, 1, 0, 0), (0, 0)),
            ((0, 1, 1, -2, 0), (1, 0)),
            ((0, 0, 1, -7, 6), (-2, 3)),
            ((1, -1, 0, -4, 4), (2, 0)),
        ]
        for ai, g in cases:
            c = curve(ai) if isinstance(ai, tuple) else ai
            p = point(*g)
            h = canonical_height(c, p)
            # oracle tail envelope at 9 doubling steps is ~ F_sup * 4^-9 / 3
            assert abs(h.value - oracle_height(c, p, steps=9)) < 2e-5

    def test_against_truncated_doubling(self):
        hs = doubling_height_sequence(E37, point(0, 0), 8)
        h = canonical_height(E37, point(0, 0))
        assert abs(h.value - 0.5 * hs[8] / 4**8) < 1e-4

    def test_torsion_is_exact_zero(self):
        h = canonical_height(E11, point(5, 5))
        assert h.value == 0.0 and h.err == 0.0
        assert canonical_height(E11, None).value == 0.0

    def test_two_torsion_exact_zero(self):
        c = curve((1, 0, 0, -1, 0))
        h = canonical_height(c, point(0, 0))
        assert h.value == 0.0 and h.err == 0.0

    def test_quadraticity(self):
        p = point(0, 0)
        base = canonical_height(E37, p)
        for n in (2, 3, 5, 7):
            hn = canonical_height(E37, multiply(E37, n, p))
            assert abs(hn.value - n * n * base.value) < 1e-10

    def test_parallelogram_law(self):
        p, q = point(0, 0), point(1, 0)
        hs = canonical_height(E389, add(E389, p, q))
        hd = canonical_height(E389, add(E389, p, negate(E389, q)))
        hp = canonical_height(E389, p)
        hq = canonical_height(E389, q)
        assert abs(hs.value + hd.value - 2 * hp.value - 2 * hq.value) < 1e-10

    def test_negation_invariance(self):
        p = point(0, 0)
        assert (
            abs(
                canonical_height(E37, p).value
                - canonical_height(E37, negate(E37, p)).value
            )
            < 1e-13
        )

    def test_model_invariance(self):
        # heights agree on a rescaled, translated model of the same curve
        tr = Transform(Fraction(1, 2), 1, 1, 3)
        c2 = apply_transform(E37, tr)
        p2 = map_point(tr, point(0, 0))
        h1 = canonical_height(E37, point(0, 0))
        h2 = canonical_height(c2, p2)
        assert abs(h1.value - h2.value) <= h1.err + h2.err

    def test_error_budget_scales(self):
        loose = canonical_height(E5077, point(-2, 3), target_err=1e-6)
        tight = canonical_height(E5077, point(-2, 3), target_err=1e-13)
        assert loose.err <= 2e-6
        assert tight.err <= 1e-12
        assert abs(loose.value - tight.value) <= loose.err + tight.err

    def test_rejects_off_curve_point(self):
        with pytest.raises(PointNotOnCurve):
            canonical_height(E37, point(2, 1))


class TestPairing:
    def test_diagonal_matches_height(self):
        p = point(0, 0)
        assert (
            abs(pairing(E389, p, p).value - canonical_height(E389, p).value) < 1e-11
        )

    def test_symmetry_and_antisymmetry(self):
        p, q = point(0, 0), point(1, 0)
        pq = pairing(E389, p, q)
        qp = pairing(E389, q, p)
        nq = pairing(E389, p, negate(E389, q))
        assert abs(pq.value - qp.value) < 1e-12
        assert abs(pq.value + nq.value) < 1e-11

    def test_bilinearity(self):
        p, q = point(0, 0), point(1, 0)
        lhs = pairing(E389, multiply(E389, 2, p), q).value
        rhs = 2 * pairing(E389, p, q).value
        assert abs(lhs - rhs) < 1e-10

    def test_torsion_pairs_to_zero(self):
        c = curve((1, 0, 0, -1, 0))
        v = pairing(c, point(1, 0), point(0, 0))
        assert abs(v.value) <= max(v.err, 1e-11)


class TestGramMatrix:
    def test_rank_two_determinant(self):
        g = gram_matrix(E389, [point(0, 0), point(1, 0)])
        got = [[g.values[0][0], g.values[0][1]], [g.values[1][0], g.values[1][1]]]
        assert abs(got[0][0] - 0.16350038682579715) < 1e-9
        assert abs(got[0][1] - 0.0292613374224428) < 1e-9
        assert abs(got[1][1] - 0.23835582967185737) < 1e-9
        det = got[0][0] * got[1][1] - got[0][1] * got[1][0]
        assert abs(det - 0.03811504448578245) < 1e-10

    def test_rank_three_determinant(self):
        import numpy as np

        g = gram_matrix(E5077, [point(-3, 0), point(0, 2), point(2, 0)])
        det = float(np.linalg.det(g.value_matrix()))
        assert abs(det - 0.05214294484479716) < 1e-9

    def test_torsion_generator_rejected(self):
        c = curve((1, 0, 0, -1, 0))
        with pytest.raises(DegenerateLattice):
            gram_matrix(c, [point(1, 0), point(0, 0)])

    def test_dependent_generators_flagged(self):
        p = point(0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                gram_matrix(E37, [p, multiply(E37, 2, p)])
            except (DegenerateLattice, UserWarning):
                pass
            else:
                pytest.fail("dependent generators were not flagged")


class TestGramLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            GramLattice(((1.0, 0.0),), ((0.0, 0.0),))
        with pytest.raises(ValueError):
            GramLattice(((1.0, 0.5), (0.4, 1.0)), ((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ValueError):
            gram_from_matrix([[1.0]], [[-1e-3]])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLattice):
            gram_from_matrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateLattice):
            gram_from_matrix([[1.0, 0.0], [0.0, 1e-9]], [[0.0, 0.0], [0.0, 1e-6]])

    def test_accessors(self):
        g = gram_from_matrix([[2.0, 1.0], [1.0, 2.0]])
        assert g.m == 2
        assert g.exact(0, 1) == Fraction(1)
        assert g.value_matrix().shape == (2, 2)
        assert float(g.err_matrix().sum()) == 0.0

    def test_empty_lattice(self):
        g = gram_from_matrix([])
        assert g.m == 0

    def test_height_value_rejects_negative_err(self):
        with pytest.raises(ValueError):
            HeightValue(1.0, -1.0)


class TestTorsion:
    def test_trivial(self):
        t = torsion_subgroup(E37)
        assert t.order == 1 and t.invariants == (1,) and t.points == ()

    def test_cyclic_five(self):
        t = torsion_subgroup(E11)
        assert t.order == 5 and t.invariants == (5,)
        xs = sorted({p.x for p in t.points})
        assert xs == [5, 16]

    def test_cyclic_six(self):
        t = torsion_subgroup(curve((0, 0, 0, 0, 1)))
        assert t.order == 6 and t.invariants == (6,)
        assert len(t.points) == 5

    def test_full_two_torsion(self):
        t = torsion_subgroup(curve((0, 0, 0, -1, 0)))
        assert t.order == 4 and t.invariants == (2, 2)
        assert sorted(p.x for p in t.points) == [-1, 0, 1]

    def test_two_by_four(self):
        t = torsion_subgroup(curve((1, 1, 1, -10, -10)))
        assert t.order == 8 and t.invariants == (2, 4)
        assert len(t.points) == 7

    def test_order_two(self):
        t = torsion_subgroup(curve((1, 0, 0, -1, 0)))
        assert t.order == 2 and t.points == (point(0, 0),)

    def test_order_three(self):
        t = torsion_subgroup(curve((0, 0, 1, 0, -7)))
        assert t.order == 3 and len(t.points) == 2

    def test_points_have_stated_order(self):
        for ai in ((0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (1, 1, 1, -10, -10)):
            c = curve(ai)
            t = torsion_subgroup(c)
            for p in t.points:
                assert multiply(c, t.order, p) is None

    def test_nonminimal_model(self):
        # torsion computed on a non-minimal model matches the minimal one
        tr = Transform(Fraction(1, 3), 2, 0, 1)
        c2 = apply_transform(E11, tr)
        t = torsion_subgroup(c2)
        assert t.order == 5
        for p in t.points:
            assert multiply(c2, 5, p) is None


class TestIntegralityExit:
    """Torsion is decided on the integral minimal model: a multiple whose
    x-denominator does not divide 4 proves infinite order."""

    def test_order_two_point_with_quarter_x(self):
        # minimal model with disc -4225; (-1/4, 1/8) has order 2, so the
        # test must accept a denominator dividing 4, not only 1
        c = curve((1, 0, 0, 4, 1))
        assert c.disc == -4225 and c.minimal[0].ainvs() == c.ainvs()
        p = point(Fraction(-1, 4), Fraction(1, 8))
        assert p in torsion_subgroup(c).points
        assert canonical_height(c, p) == HeightValue(0.0, 0.0)

    def test_non_integral_input_model(self):
        # u = 3 makes a4 and a6 fractional and moves the 5-torsion point to
        # x = 4/9: on this model the integrality test would call it
        # non-torsion, so torsion must be decided on the minimal model
        tr = Transform(3, 1, 1, 0)
        c11 = apply_transform(E11, tr)
        assert not c11.is_integral()
        p = map_point(tr, point(5, 5))
        assert 4 % p.x.denominator != 0
        assert canonical_height(c11, p) == HeightValue(0.0, 0.0)
        assert torsion_subgroup(c11).order == 5
        c37 = apply_transform(E37, tr)
        assert not c37.is_integral()
        g = map_point(tr, point(0, 0))
        assert canonical_height(c37, g) == canonical_height(E37, point(0, 0))
        c5077 = apply_transform(E5077, tr)
        gens = [point(-3, 0), point(0, 2), point(2, 0)]
        assert gram_matrix(c5077, [map_point(tr, q) for q in gens]) == gram_matrix(
            E5077, gens
        )
        with pytest.raises(DegenerateLattice):
            gram_matrix(c11, [p])

    def test_tall_point_makes_no_additions(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return add(*args)

        monkeypatch.setattr(heights, "add", counted)
        p = add(
            E5077, multiply(E5077, 10, point(-3, 0)), multiply(E5077, 8, point(2, 0))
        )
        assert max(abs(p.x.numerator), p.x.denominator).bit_length() > 100
        assert canonical_height(E5077, p).value > 0
        assert calls == []

    def test_gram_matrix_decides_torsion_once_per_point(self, monkeypatch):
        calls = []
        real = heights._torsion_multiple

        def counted(cmin, pt, *args):
            calls.append(pt)
            return real(cmin, pt, *args)

        monkeypatch.setattr(heights, "_torsion_multiple", counted)
        gram_matrix(E5077, [point(-3, 0), point(0, 2), point(2, 0)])
        # 3 generators and 3 pairwise sums, each once
        assert len(calls) == 6 and len(set(calls)) == 6


# (p, Kodaira type at p, split, ainvs of a minimal model, a point that
# reduces to the singular point mod p); split is set for multiplicative
# reduction only
KODAIRA_FIXTURES = [
    (2, "I0*", None, (0, 0, 0, 0, -4), (2, 2)),
    (2, "III", None, (0, -1, 0, 0, 1), (0, 1)),
    (2, "IV", None, (0, 0, 0, -1, 1), (-1, 1)),
    (2, "I1*", None, (0, 1, 0, -4, 0), (-2, 2)),
    (2, "III*", None, (0, 0, 0, 8, 0), (8, 24)),
    (2, "IV*", None, (0, 0, 0, 1, 6), (-1, 2)),
    (2, "I2", True, (1, 0, 0, -1, -3), (2, 1)),
    (2, "I2", False, (1, 1, 0, -2, 0), (-2, 2)),
    (3, "I0*", None, (0, 0, 0, 18, 0), (3, 9)),
    (3, "III", None, (0, 0, 1, 0, 3), (-1, 1)),
    (3, "IV", None, (0, 0, 1, -3, 0), (-1, 1)),
    (3, "I1*", None, (0, 0, 1, -21, 0), (-4, 4)),
    (3, "III*", None, (0, 0, 0, -54, 0), (27, 135)),
    (3, "IV*", None, (0, 0, 0, 0, 54), (3, 9)),
    (3, "I2", True, (0, 1, 0, 4, 3), (1, 3)),
    (3, "I2", False, (1, 1, 1, -3, 0), (-2, 2)),
    (5, "I0*", None, (1, 1, 0, -50, 0), (-5, 15)),
    (5, "III", None, (0, 0, 0, 5, 0), (20, 90)),
    (5, "IV", None, (1, 1, 1, 12, 6), (0, 2)),
    (5, "I1*", None, (1, 1, 0, -25, 125), (-5, 15)),
    (5, "I2", True, (0, -1, 0, -30, -3), (-1, -5)),
    (5, "I2", False, (0, -1, 0, -26, -24), (11, -30)),
    (7, "I2", True, (0, -1, 1, 0, -6), (3, 3)),
    (7, "I2", False, (1, -1, 0, 0, -3), (4, 5)),
]


class TestLocalTerms:
    """Heights of points outside the identity component: the series on the
    point itself plus Silverman's closed-form local terms."""

    @pytest.mark.parametrize("p, kodaira, split, ainvs, xy", KODAIRA_FIXTURES)
    def test_kodaira_fixture(self, p, kodaira, split, ainvs, xy):
        c = curve(ainvs)
        assert c.minimal[0].ainvs() == c.ainvs()
        red = tate_local(c, p)
        assert (red.kodaira, red.split) == (kodaira, split)
        pt = point(*xy)
        assert reduces_to_singular(c, pt, p)
        h = canonical_height(c, pt)
        assert abs(h.value - oracle_height(c, pt, steps=8)) < 1e-4
        sat = oracle_saturated_height(c, pt, 1e-12)
        assert abs(h.value - sat.value) <= h.err + sat.err

    def test_stress_curve_addition_count(self, monkeypatch):
        # rank 5 with I8 at 7, I6 at 11 and I5 at 37: no multiple of a point
        # is formed, so only the 10 pairwise sums and at most one
        # torsion-test addition per point remain
        calls = []

        def counted(*args):
            calls.append(args)
            return add(*args)

        monkeypatch.setattr(points, "add", counted)
        monkeypatch.setattr(heights, "add", counted)
        ainvs = (
            Fraction(3658, 2849),
            Fraction(-10631, 2849),
            Fraction(-27339, 2849),
            Fraction(-123440, 2849),
            Fraction(82160, 407),
        )
        gens = [point(6, -4), point(8, 11), point(-6, -5), point(5, 6), point(1, -9)]
        assert gram_matrix(curve(ainvs), gens).m == 5
        assert len(calls) <= 25


@pytest.fixture(scope="module")
def bundled_points():
    """(curve, generators, torsion points) of every bundled curve."""
    out = []
    for rec in ingest(bundled_dataset_path()):
        c = curve(rec.ainvs)
        gens = tuple(point(x, y) for x, y in rec.gens)
        out.append((c, gens, torsion_subgroup(c).points))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_torsion_decision_matches_oracle(bundled_points, data):
    c, gens, tors = data.draw(st.sampled_from(bundled_points))
    pt = data.draw(st.sampled_from((None,) + tors))
    for g in gens:
        pt = add(c, pt, multiply(c, data.draw(st.integers(-3, 3)), g))
    order = oracle_torsion_order(c, pt)
    cmin, tr = c.minimal
    assert heights._torsion_multiple(cmin, map_point(tr, pt)) == order
    h = canonical_height(c, pt)
    assert (h == HeightValue(0.0, 0.0)) == (order is not None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_height_matches_saturated_oracle(bundled_points, data):
    c, gens, _ = data.draw(st.sampled_from([b for b in bundled_points if b[1]]))
    pt = None
    for g in gens:
        pt = add(c, pt, multiply(c, data.draw(st.integers(-3, 3)), g))
    assume(pt is not None)
    cmin, tr = c.minimal
    h = canonical_height(c, pt)
    sat = oracle_saturated_height(cmin, map_point(tr, pt), 1e-12)
    assert abs(h.value - sat.value) <= h.err + sat.err
