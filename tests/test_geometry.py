import math
import random
from fractions import Fraction

import pytest

from equitower import (
    BackendMismatchError,
    ExactBackendRefusedError,
    L1,
    L2,
    LINF,
    NoIntersectionError,
    GeometryError,
    NormSpec,
    Point,
    Space,
    affine_combination,
    distance,
    lp,
    midpoint,
    sphere_intersection_point,
)
from equitower.geometry import point_from_record, point_to_record, sphere_meets
from equitower.sampling import rand_point
from box_walk import box_length, walk_meet

F = Fraction


def pt(x, y):
    return Point(F(x), F(y))


def box_meet_configs(space, count):
    """Seeded (c, R, d, r) for two l1 or linf spheres, in six flavours:
    inside the annulus, tangent, c = d, a zero radius, small integer
    coordinates (where parallel edges overlap), and radii around the
    annulus, some outside it."""
    rng = random.Random(f"box-meets:{space.norm.kind}")
    for i in range(count):
        flavor = i % 6
        if flavor == 4:
            c, d = (Point(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(2))
            yield c, F(rng.randint(0, 5), rng.choice((1, 2))), d, F(rng.randint(0, 5), rng.choice((1, 2)))
            continue
        c = rand_point(space, rng)
        d = c if flavor == 2 else rand_point(space, rng)
        g = space.length_value(c, d)
        radius_c = (g or 1) * F(rng.randint(1, 8), 4)
        lo, hi = abs(radius_c - g), radius_c + g
        if flavor == 0:
            radius_d = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        elif flavor == 1:
            radius_d = rng.choice((lo, hi))
        elif flavor == 2:
            radius_d = radius_c
        elif flavor == 3:
            radius_c, radius_d = rng.choice(((F(0), g), (g, F(0))))
        else:
            radius_d = max(F(0), lo + (hi - lo) * F(rng.randint(-2, 18), 16))
        yield c, radius_c, d, radius_d


EXACT_SPACES = [Space(L1, "exact"), Space(L2, "exact"), Space(LINF, "exact")]


class TestDistance:
    def test_euclidean_three_four_five(self):
        assert distance(Space(L2, "exact"), pt(0, 0), pt(3, 4)) == 5

    def test_taxicab(self):
        assert distance(Space(L1, "exact"), pt(0, 0), pt(3, 4)) == 7

    def test_identity_in_max_norm(self):
        assert distance(Space(LINF, "exact"), pt(1, 1), pt(1, 1)) == 0

    def test_float_backends(self):
        assert distance(Space(L2, "float", 1e-9), Point(0.0, 0.0), Point(3.0, 4.0)) == pytest.approx(5.0)
        p32 = Space(lp("3/2"), "float", 1e-9)
        d = distance(p32, Point(0.0, 0.0), Point(1.0, 1.0))
        assert d == pytest.approx(2 ** (1 / 3) * 2 ** (1 / 3))  # (1+1)^(2/3)

    def test_backend_mismatch_raises(self):
        with pytest.raises(BackendMismatchError):
            distance(Space(L2, "exact"), Point(0.5, 0.0), pt(1, 1))

    @pytest.mark.parametrize("space", EXACT_SPACES, ids=lambda s: s.norm.kind)
    def test_symmetry_identity_triangle_sampled(self, space):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c = (rand_point(space, rng) for _ in range(3))
            assert space.eq_dist(a, b, b, a)
            assert distance(space, a, a) == 0
            d_ab, d_bc, d_ac = distance(space, a, b), distance(space, b, c), distance(space, a, c)
            assert d_ac <= d_ab + d_bc

    @pytest.mark.parametrize("space", EXACT_SPACES, ids=lambda s: s.norm.kind)
    def test_homogeneity_exact(self, space):
        rng = random.Random(8)
        for _ in range(200):
            a, b = rand_point(space, rng), rand_point(space, rng)
            lam = F(rng.randint(-12, 12), rng.randint(1, 6))
            la = Point(lam * a.x, lam * a.y)
            lb = Point(lam * b.x, lam * b.y)
            if space.norm.kind == "l2":
                assert space.sq_dist(la, lb) == lam * lam * space.sq_dist(a, b)
            else:
                assert space.length_value(la, lb) == abs(lam) * space.length_value(a, b)

    def test_zero_distance_implies_equality_exact(self):
        space = Space(L2, "exact")
        rng = random.Random(9)
        for _ in range(200):
            a, b = rand_point(space, rng), rand_point(space, rng)
            if distance(space, a, b) == 0:
                assert a == b


class TestPredicates:
    def test_equidistant_examples(self):
        s2 = Space(L2, "exact")
        assert s2.eq_dist(pt(0, 0), pt(0, 5), pt(3, 4), pt(0, 0))
        assert Space(LINF, "exact").eq_dist(pt(0, 0), pt(2, 1), pt(0, 0), pt(1, 2))
        for space in EXACT_SPACES:
            assert space.eq_dist(pt(7, 7), pt(7, 7), pt(-2, 3), pt(-2, 3))

    def test_scaled_equidistant_examples(self):
        assert Space(L2, "exact").eq_dist_scaled(pt(0, 0), pt(4, 0), 2, pt(1, 1), pt(3, 1))
        assert Space(L2, "exact").eq_dist_scaled(pt(5, 5), pt(5, 5), 0, pt(1, 1), pt(3, 1))
        assert Space(L1, "exact").eq_dist_scaled(pt(0, 0), pt(1, 0), F(1, 2), pt(0, 0), pt(1, 1))
        with pytest.raises(GeometryError):
            Space(L1, "exact").eq_dist_scaled(pt(0, 0), pt(1, 0), -1, pt(0, 0), pt(1, 1))

    def test_affine_combination_endpoints_and_extension(self):
        a, b = pt(0, 0), pt(1, 0)
        assert affine_combination(a, b, F(0)) == a
        assert affine_combination(a, b, F(1)) == b
        assert affine_combination(a, b, F(3)) == pt(3, 0)
        assert midpoint(pt(0, 0), pt(2, 4)) == pt(1, 2)

    def test_path_sum_eq_ixes_corner_paths(self):
        s2 = Space(L2, "exact")
        assert s2.path_sum_eq(pt(0, 0), pt(1, 1), pt(2, 2))
        assert not s2.path_sum_eq(pt(0, 0), pt(1, 1), pt(2, 0))
        si = Space(LINF, "exact")
        assert si.path_sum_eq(pt(0, 0), pt(2, 1), pt(4, 0))

    def test_defect_band_predicate(self):
        s2 = Space(L2, "exact")
        a, b, c = pt(0, 0), pt(1, 0), pt(3, 0)
        assert s2.path_defect_at_most(a, b, c, F(1, 32))
        assert not s2.path_defect_at_most(a, pt(1, 2), c, F(1, 32))
        # 5 + 5 <= 6 + q*5 exactly when q >= 4/5: the boundary is decided exactly
        assert s2.path_defect_at_most(pt(0, 0), pt(3, 4), pt(6, 0), F(4, 5))
        assert not s2.path_defect_at_most(pt(0, 0), pt(3, 4), pt(6, 0), F(3, 5))


class TestSphereIntersection:
    def test_tangent_circles_euclidean(self):
        space = Space(L2, "float", 1e-9)
        e = sphere_intersection_point(space, Point(0.0, 0.0), 1.0, Point(2.0, 0.0), 1.0)
        assert e == pytest.approx((1.0, 0.0))

    def test_taxicab_diamonds_meet_exactly(self):
        space = Space(L1, "exact")
        e = sphere_intersection_point(space, pt(0, 0), F(2), pt(2, 0), F(2))
        assert space.length_value(pt(0, 0), e) == 2
        assert space.length_value(pt(2, 0), e) == 2

    def test_disjoint_spheres_refused(self):
        with pytest.raises(NoIntersectionError):
            sphere_intersection_point(Space(L2, "float", 1e-9), Point(0.0, 0.0), 1.0, Point(5.0, 0.0), 1.0)

    def test_exact_euclidean_refused(self):
        with pytest.raises(ExactBackendRefusedError):
            sphere_intersection_point(Space(L2, "exact"), pt(0, 0), F(1), pt(1, 1), F(1))

    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_polygonal_walk_random_configurations(self, kind):
        """The pin grid agrees with the boundary walk of ``box_walk``: the
        same point, and every candidate on both spheres."""
        space = Space(NormSpec(kind), "exact")
        met = 0
        for c, radius_c, d, radius_d in box_meet_configs(space, 2400):
            want = walk_meet(kind, c, radius_c, d, radius_d)
            meets = sphere_meets(space, c, radius_c, d, radius_d)
            for e in meets:
                assert box_length(kind, c, e) == radius_c and box_length(kind, d, e) == radius_d
            try:
                got = sphere_intersection_point(space, c, radius_c, d, radius_d)
            except NoIntersectionError:
                assert meets == []
                continue
            assert got == want and type(got.x) is type(want.x)
            assert want in meets or 0 in (radius_c, radius_d)
            met += 1
        assert met > 2000

    def test_float_box_norms_reuse_exact_walk(self):
        space = Space(LINF, "float", 1e-9)
        e = sphere_intersection_point(space, Point(0.0, 0.0), 1.0, Point(1.5, 0.25), 1.0)
        assert abs(space.length_value(Point(0.0, 0.0), e) - 1.0) < 1e-9
        assert abs(space.length_value(Point(1.5, 0.25), e) - 1.0) < 1e-9

    def test_lp_numeric_solve(self):
        space = Space(lp("3/2"), "float", 1e-9)
        e = sphere_intersection_point(space, Point(0.0, 0.0), 2.0, Point(1.0, 0.5), 1.5)
        assert abs(space.length_value(Point(0.0, 0.0), e) - 2.0) < 1e-8
        assert abs(space.length_value(Point(1.0, 0.5), e) - 1.5) < 1e-8

    @pytest.mark.parametrize("p", ["3", "3/2"])
    @pytest.mark.parametrize(
        "c,radius_c,d,radius_d,want",
        [
            ((-1.0, -1.0), 2.0, (0.375, -1.0), 0.625, (1.0, -1.0)),  # internal
            ((21.0, 0.0), 1.0, (21.0, 1.5), 0.5, (21.0, 1.0)),  # external
        ],
        ids=["internal", "external"],
    )
    def test_lp_tangency_on_a_grid_angle(self, p, c, radius_c, d, radius_d, want):
        # the residual is exactly zero at the meeting point's grid angle
        space = Space(lp(p), "float", 1e-9)
        e = sphere_intersection_point(space, Point(*c), radius_c, Point(*d), radius_d)
        assert (e.x, e.y) == pytest.approx(want)

    @pytest.mark.parametrize("p", ["3", "3/2"])
    @pytest.mark.parametrize(
        "radius_c,radius_d,gap,side",
        [(1.0, 0.5, 1.5, 1.0), (2.0, 0.75, 1.25, 1.0), (0.75, 2.0, 1.25, -1.0)],
        ids=["external", "internal-R>r", "internal-R<r"],
    )
    def test_lp_tangency_off_the_grid(self, p, radius_c, radius_d, gap, side):
        # tangent spheres of a strictly convex plane meet on the line of
        # centres, here at an angle between two grid angles
        space = Space(lp(p), "float", 1e-9)
        c = Point(0.1, -0.2)
        unit = space.length_value(Point(0.0, 0.0), Point(math.cos(0.3), math.sin(0.3)))
        ux, uy = math.cos(0.3) / unit, math.sin(0.3) / unit
        d = Point(c.x + gap * ux, c.y + gap * uy)
        e = sphere_intersection_point(space, c, radius_c, d, radius_d)
        assert (e.x, e.y) == pytest.approx((c.x + side * radius_c * ux, c.y + side * radius_c * uy))

    @pytest.mark.parametrize("p", ["3", "3/2", "11/10"])
    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
    @pytest.mark.parametrize("angle", [0.3, 1.1, 2.5])
    def test_lp_near_tangency_meets_on_both_sides(self, p, eps, angle):
        # spheres 1.5 * eps short of external tangency cross just off the line
        # of centres, once on each side of it
        space = Space(lp(p), "float", 1e-9)
        c = Point(0.1, -0.2)
        unit = space.length_value(Point(0.0, 0.0), Point(math.cos(angle), math.sin(angle)))
        gap = 1.5 * (1.0 - eps)
        d = Point(c.x + gap * math.cos(angle) / unit, c.y + gap * math.sin(angle) / unit)
        e = sphere_intersection_point(space, c, 1.0, d, 0.5)
        meets = sphere_meets(space, c, 1.0, d, 0.5)
        assert len(meets) == 2 and meets[0] == e
        for m in meets:
            assert space.length_is(c, m, 1.0) and space.length_is(d, m, 0.5)
        left, right = ((d.x - c.x) * (m.y - c.y) - (d.y - c.y) * (m.x - c.x) for m in meets)
        assert left > 0.0 > right

    def test_float_l2_coincident_centres_meet_once(self):
        space = Space(L2, "float", 1e-9)
        assert sphere_meets(space, Point(1.0, 2.0), 3.0, Point(1.0, 2.0), 3.0) == [Point(4.0, 2.0)]
        # |cd|^2 underflows to 0 although |cd| does not
        assert sphere_meets(space, Point(0.0, 0.0), 1e-170, Point(1e-170, 0.0), 1e-170) == [Point(1e-170, 0.0)]

    def test_equal_centers_need_equal_radii(self):
        space = Space(L1, "exact")
        e = sphere_intersection_point(space, pt(1, 1), F(3), pt(1, 1), F(3))
        assert space.length_value(pt(1, 1), e) == 3
        with pytest.raises(NoIntersectionError):
            sphere_intersection_point(space, pt(1, 1), F(3), pt(1, 1), F(2))


class TestSpaceConfig:
    def test_validation(self):
        with pytest.raises(GeometryError):
            Space(lp("3/2"), "exact")
        with pytest.raises(GeometryError):
            Space(L2, "exact", 1e-9)
        with pytest.raises(GeometryError):
            Space(L2, "float", -1.0)
        with pytest.raises(GeometryError):
            NormSpec("lp", F(1))
        with pytest.raises(GeometryError):
            NormSpec("l7")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerances_are_refused(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            Space(L2, "float", bad)

    def test_point_records(self):
        exact = Space(L2, "exact")
        p = point_from_record(exact, {"x": "1/2", "y": "-3"})
        assert p == pt("1/2", -3)
        assert point_to_record(exact, p) == {"x": "1/2", "y": "-3"}
        with pytest.raises(BackendMismatchError):
            point_from_record(exact, {"x": 0.5, "y": 1.0})
        fl = Space(L2, "float", 1e-9)
        q = point_from_record(fl, {"x": 0.5, "y": 1})
        assert q == Point(0.5, 1.0)
