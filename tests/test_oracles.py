import random
from fractions import Fraction

import pytest

from equitower import L1, L2, LINF, Point, Space, affine_combination, lp, sphere_intersection_point
from equitower.geometry import NoIntersectionError, midpoint, p_add, p_sub
from equitower.oracles import (
    ALPHA,
    OracleError,
    PSI,
    RelationId,
    oracle_B,
    oracle_alpha,
    oracle_beta,
    oracle_collinear,
    oracle_delta,
    oracle_distinct,
    oracle_equiv2,
    oracle_gamma,
    oracle_le,
    oracle_midpoint,
    oracle_parallelogram,
    oracle_phi,
    oracle_psi,
    oracle_truth,
)
from equitower.sampling import collinear_triple, equal_length_mate, rand_point, scale_vector

F = Fraction
S2 = Space(L2, "exact")
S1 = Space(L1, "exact")
SI = Space(LINF, "exact")


def pt(x, y):
    return Point(F(x), F(y))


class TestRelationId:
    def test_label_and_parse(self):
        assert RelationId.parse("PSI:3:2") == PSI(3, 2)
        assert RelationId.parse("gamma").name == "GAMMA"
        assert PSI(3, 2).label() == "PSI(3,2)"
        assert RelationId("GAMMA").arity() == 3

    def test_invalid_indices_rejected(self):
        with pytest.raises(OracleError):
            RelationId("PSI", (0, 1))
        with pytest.raises(OracleError):
            RelationId("ALPHA", ())
        with pytest.raises(OracleError):
            RelationId("NOPE")
        with pytest.raises(OracleError):
            RelationId.parse("PSI:x")


class TestOracleExamples:
    def test_equiv2(self):
        assert oracle_equiv2(S2, pt(0, 0), pt(4, 0), pt(1, 1), pt(3, 1))
        assert oracle_equiv2(S2, pt(2, 2), pt(2, 2), pt(5, 1), pt(5, 1))
        assert not oracle_equiv2(S1, pt(0, 0), pt(1, 2), pt(0, 0), pt(1, 1))

    def test_midpoint(self):
        assert oracle_midpoint(S2, pt(0, 0), pt(1, 1), pt(2, 2))
        assert not oracle_midpoint(S2, pt(3, 3), pt(1, 1), pt(3, 3))
        assert not oracle_midpoint(S2, pt(0, 0), pt(1, 0), pt(4, 0))

    def test_phi_stage_zero_only(self):
        assert oracle_phi(S2, 0, pt(0, 0), pt(2, 0), pt(1, 0))
        assert not oracle_phi(S2, 0, pt(0, 0), pt(2, 0), pt(1, 1))
        with pytest.raises(OracleError):
            oracle_phi(S2, 1, pt(0, 0), pt(2, 0), pt(1, 0))

    def test_alpha(self):
        assert oracle_alpha(S2, 1, pt(0, 0), pt(2, 3), pt(2, 3))
        assert oracle_alpha(S2, 3, pt(0, 0), pt(1, 0), pt(3, 0))
        assert not oracle_alpha(S2, 2, pt(0, 0), pt(1, 0), pt(-2, 0))
        assert not oracle_alpha(S2, 2, pt(1, 1), pt(1, 1), pt(1, 1))

    def test_beta(self):
        assert oracle_beta(S2, 1, pt(0, 0), pt(2, 0), pt(1, 0))
        assert oracle_beta(S2, 2, pt(0, 0), pt(4, 4), pt(1, 1))
        assert not oracle_beta(S2, 1, pt(3, 3), pt(3, 3), pt(3, 3))

    def test_psi(self):
        assert oracle_psi(S2, 2, 1, pt(0, 0), pt(1, 0), pt(0, 0), pt(0, 1))
        assert not oracle_psi(S2, 2, 1, pt(0, 0), pt(1, 0), pt(5, 5), pt(5, 5))
        assert not oracle_psi(S2, 2, 1, pt(0, 0), pt(1, 0), pt(0, 0), pt(10, 0))

    def test_gamma(self):
        assert oracle_gamma(S2, pt(0, 0), pt(1, 0), pt(3, 0))
        assert oracle_gamma(SI, pt(0, 0), pt(2, 1), pt(4, 0))
        assert not oracle_gamma(S2, pt(0, 0), pt(1, 1), pt(2, 0))
        assert not oracle_gamma(S2, pt(0, 0), pt(0, 0), pt(2, 0))

    def test_affine_betweenness(self):
        assert oracle_B(S2, pt(1, 1), pt(1, 1), pt(4, 0))
        assert not oracle_B(SI, pt(0, 0), pt(2, 1), pt(4, 0))
        assert not oracle_B(S2, pt(0, 0), pt(5, 0), pt(3, 0))
        assert oracle_B(S2, pt(2, 2), pt(2, 2), pt(2, 2))

    def test_delta(self):
        assert oracle_delta(S2, 2, pt(0, 0), pt(1, 0), pt(2, 0))
        assert oracle_delta(S2, 5, pt(3, 3), pt(9, 9), pt(3, 3))
        assert not oracle_delta(S1, 3, pt(0, 0), pt(1, 0), pt(4, 0))
        with pytest.raises(OracleError):
            oracle_delta(S2, 0, pt(0, 0), pt(1, 0), pt(2, 0))

    def test_distinct(self):
        assert not oracle_distinct(S2, pt(0, 0), pt(0, 0))
        assert oracle_distinct(S2, pt(0, 0), pt("1/3", 0))
        fuzzy = Space(L2, "float", 1e-9)
        assert not oracle_distinct(fuzzy, Point(0.0, 0.0), Point(1e-12, 0.0))

    def test_le(self):
        assert oracle_le(S2, pt(0, 0), pt(1, 0), pt(0, 0), pt(2, 0))
        assert oracle_le(S2, pt(0, 0), pt(2, 0), pt(5, 5), pt(7, 5))
        assert not oracle_le(S2, pt(0, 0), pt(3, 0), pt(0, 0), pt(2, 0))

    def test_collinear_and_parallelogram(self):
        assert oracle_collinear(S2, pt(0, 0), pt(1, 1), pt(2, 2))
        assert not oracle_collinear(S2, pt(0, 0), pt(1, 1), pt(2, 0))
        assert oracle_parallelogram(S2, pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
        assert not oracle_parallelogram(S2, pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0))

    def test_dispatcher_arity_check(self):
        assert oracle_truth(S2, RelationId("GAMMA"), (pt(0, 0), pt(1, 0), pt(3, 0)))
        with pytest.raises(OracleError):
            oracle_truth(S2, RelationId("GAMMA"), (pt(0, 0), pt(1, 0)))


class TestOracleInvariants:
    @pytest.mark.parametrize("space", [S1, S2, SI], ids=lambda s: s.norm.kind)
    def test_affine_betweenness_implies_metric(self, space):
        rng = random.Random(31)
        for _ in range(300):
            a, b, c = collinear_triple(space, rng)
            if space.points_eq(a, b) or space.points_eq(b, c) or space.points_eq(a, c):
                continue
            assert oracle_B(space, a, b, c)
            assert oracle_gamma(space, a, b, c)

    def test_strict_convexity_makes_them_coincide_in_l2(self):
        rng = random.Random(32)
        for _ in range(500):
            roll = rng.random()
            if roll < 0.5:
                a, b, c = collinear_triple(S2, rng)
            else:
                a, b, c = (rand_point(S2, rng) for _ in range(3))
            if S2.points_eq(a, b) or S2.points_eq(b, c) or S2.points_eq(a, c):
                continue
            assert oracle_gamma(S2, a, b, c) == oracle_B(S2, a, b, c)

    def test_max_norm_separates_them(self):
        a, b, c = pt(0, 0), pt(2, 1), pt(4, 0)
        assert oracle_gamma(SI, a, b, c) and not oracle_B(SI, a, b, c)

    @pytest.mark.parametrize("space", [S1, S2, SI], ids=lambda s: s.norm.kind)
    def test_midpoint_consistency(self, space):
        rng = random.Random(33)
        for _ in range(200):
            a, c = rand_point(space, rng), rand_point(space, rng)
            if space.points_eq(a, c):
                continue
            b = midpoint(a, c)
            assert oracle_midpoint(space, a, b, c)
            assert space.eq_dist(a, b, b, c)
            assert space.eq_dist_scaled(a, c, 2, a, b)

    @pytest.mark.parametrize("space", [S1, SI], ids=lambda s: s.norm.kind)
    def test_psi_annulus_matches_constructibility(self, space):
        rng = random.Random(34)
        for _ in range(150):
            a = rand_point(space, rng)
            v = Point(F(rng.randint(1, 6)), F(rng.randint(0, 6)))
            b = Point(a.x + v.x, a.y + v.y)
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            c = rand_point(space, rng)
            q = F(rng.randint(0, 3 * 2**k), 2**k)
            mate = scale_vector(space, equal_length_mate(space, rng, v), q)
            d = Point(c.x + mate.x, c.y + mate.y)
            u = space.length_value(a, b)
            radius_c = F(n, 2**k) * u
            radius_d = F(1, 2**k) * u
            says = oracle_psi(space, n, k, a, b, c, d)
            try:
                e = sphere_intersection_point(space, c, radius_c, d, radius_d)
                built = True
                assert space.length_value(c, e) == radius_c
                assert space.length_value(d, e) == radius_d
            except NoIntersectionError:
                built = False
            if space.points_eq(a, b) or space.points_eq(c, d):
                assert not says
            else:
                assert says == built

    def test_le_is_a_total_preorder(self):
        rng = random.Random(35)
        segments = [(rand_point(S2, rng), rand_point(S2, rng)) for _ in range(40)]
        for a, b in segments:
            assert oracle_le(S2, a, b, a, b)
        for a, b in segments:
            for c, d in segments:
                assert oracle_le(S2, a, b, c, d) or oracle_le(S2, c, d, a, b)
        for a, b in segments[:12]:
            for c, d in segments[:12]:
                for e, f in segments[:12]:
                    if oracle_le(S2, a, b, c, d) and oracle_le(S2, c, d, e, f):
                        assert oracle_le(S2, a, b, e, f)


class TestFloatCoordinateOracles:
    """On float planes M, ALPHA, BETA and PARALLELOGRAM compare coordinates
    one by one under the tolerance.  At |c| ~ 1e6 that admits an offset of
    1e-4, which the distance-based ``points_eq`` refuses, so the two tests
    cannot stand in for each other unnoticed."""

    @pytest.mark.parametrize("norm", [L1, L2, LINF, lp(3)], ids=lambda n: n.label())
    def test_per_coordinate_tolerance_at_large_coordinates(self, norm):
        space = Space(norm, "float", 1e-9)
        a, b = Point(1.0e6, 2.0e6), Point(1.0e6 + 8.0, 2.0e6 - 4.0)
        c = Point(2 * b.x - a.x, 2 * b.y - a.y)
        far, d = Point(3.0e6, 2.5e6), Point(-3.0e6, 4.0e6)  # far - a is about 1e6 long
        for offset, want in ((1e-4, True), (1e-2, False)):  # the tolerance is about 1e-9 * 1e6
            def nudge(p):
                return Point(p.x + offset, p.y)

            assert not space.points_eq(b, nudge(b))
            assert oracle_midpoint(space, a, nudge(b), c) is want
            assert oracle_alpha(space, 3, a, b, nudge(affine_combination(a, b, 3))) is want
            assert oracle_beta(space, 2, a, b, nudge(affine_combination(a, b, F(1, 4)))) is want
            assert oracle_parallelogram(space, a, far, nudge(p_add(d, p_sub(far, a))), d) is want
