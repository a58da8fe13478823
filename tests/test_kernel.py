"""Differential test of the exact comparison kernels against Fraction arithmetic.

Every exact comparison method of ``Space`` and every oracle with its own
exact coordinate path is checked here against reference arithmetic written
in plain ``Fraction``s: l1/linf lengths, squared l2 lengths, and the
squaring identities for sums of l2 lengths.  The pools are seeded draws
from :mod:`equitower.sampling` (as the benchmark's micro-timings draw
them), plus coincident points, ``int`` coordinates and large denominators.
"""

import math
import random
from fractions import Fraction

import pytest

from equitower import (
    ExactBackendRefusedError,
    NoIntersectionError,
    NormSpec,
    Point,
    Space,
    affine_combination,
    space_to_config,
    sphere_intersection_point,
)
from equitower.geometry import p_add, p_sub
from equitower.oracles import (
    oracle_B,
    oracle_alpha,
    oracle_beta,
    oracle_collinear,
    oracle_midpoint,
    oracle_parallelogram,
)
from equitower.sampling import box_path_triple, collinear_triple, equal_length_mate, rand_point

F = Fraction
NORMS = ("l1", "l2", "linf")
POOL = 300
SCALES = (0, F(1, 2), 1, 2, F(7, 3))
DEFECTS = (0, F(1, 32), F(1, 2), 1)


def exact_space(kind: str) -> Space:
    return Space(NormSpec(kind), "exact")


# ----------------------------------------------------------------------
# reference arithmetic
# ----------------------------------------------------------------------


def ref_len(kind, a, b):
    """l1/linf length, or the squared l2 length, as a Fraction."""
    dx, dy = abs(F(a.x) - F(b.x)), abs(F(a.y) - F(b.y))
    if kind == "l1":
        return dx + dy
    if kind == "linf":
        return max(dx, dy)
    return dx * dx + dy * dy


def ref_scaled_sign(kind, a, b, q, c, d):
    """Sign of d(a,b) - q * d(c,d)."""
    q = F(q)
    lhs, rhs = ref_len(kind, a, b), (q * q if kind == "l2" else q) * ref_len(kind, c, d)
    return (lhs > rhs) - (lhs < rhs)


def ref_path_sum_eq(kind, a, b, c):
    ab, bc, ac = ref_len(kind, a, b), ref_len(kind, b, c), ref_len(kind, a, c)
    if kind != "l2":
        return ab + bc == ac
    lead = ac - ab - bc
    return lead >= 0 and lead * lead == 4 * ab * bc


def ref_defect_at_most(kind, a, b, c, coeff):
    keep = 1 - F(coeff)
    ab, bc, ac = ref_len(kind, a, b), ref_len(kind, b, c), ref_len(kind, a, c)
    if kind != "l2":
        return keep * ab + bc <= ac
    # keep*sqrt(ab) + sqrt(bc) <= sqrt(ac)  <=>  2*keep*sqrt(ab*bc) <= ac - keep^2*ab - bc
    rest = ac - keep * keep * ab - bc
    return rest >= 0 and 4 * keep * keep * ab * bc <= rest * rest


def ref_ratio_ceil(kind, factor, a, b, c, d):
    ratio = F(factor) * ref_len(kind, a, b) / ref_len(kind, c, d)
    if kind != "l2":
        return math.ceil(ratio)
    ratio *= factor  # squared lengths: ceil(sqrt(factor^2 * A / C))
    m = math.isqrt(math.floor(ratio))
    while m * m < ratio:
        m += 1
    return m


def ref_annulus(kind, c, radius_c, d, radius_d):
    g = ref_len(kind, c, d)
    lo, hi = abs(radius_c - radius_d), radius_c + radius_d
    if kind == "l2":
        return lo * lo <= g <= hi * hi
    return lo <= g <= hi


def ref_root(kind, value):
    """A length from ``ref_len``'s value: the rational root on l2 (None
    when it is irrational), the value itself otherwise."""
    if kind != "l2":
        return value
    n, d = math.isqrt(value.numerator), math.isqrt(value.denominator)
    return F(n, d) if n * n == value.numerator and d * d == value.denominator else None


def ref_points_eq(p, q):
    return F(p.x) == F(q.x) and F(p.y) == F(q.y)


def ref_on_line_at(p, a, b, t):
    return ref_points_eq(p, Point(F(a.x) + t * (b.x - a.x), F(a.y) + t * (b.y - a.y)))


def ref_cross(a, b, c):
    return (F(b.x) - a.x) * (F(c.y) - a.y) - (F(b.y) - a.y) * (F(c.x) - a.x)


def ref_B(a, b, c):
    if ref_points_eq(a, c):
        return ref_points_eq(a, b)
    if ref_cross(a, c, b) != 0:
        return False
    ux, uy, vx, vy = F(c.x) - a.x, F(c.y) - a.y, F(b.x) - a.x, F(b.y) - a.y
    t = (vx * ux + vy * uy) / (ux * ux + uy * uy)
    return 0 <= t <= 1


# ----------------------------------------------------------------------
# seeded pools
# ----------------------------------------------------------------------


def draw_point(space, rng, flavor):
    """A sampler point, an int-coordinate point, or a large-denominator point."""
    if flavor == 0:
        return rand_point(space, rng)
    if flavor == 1:
        return Point(rng.randint(-30, 30), rng.randint(-30, 30))
    return Point(F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12)),
                 F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12)))


def quad_pool(space, seed):
    """Four-point configurations; half put c-d congruent to a-b."""
    rng = random.Random(f"kernel-quads:{space.norm.kind}:{seed}")
    pool = []
    for i in range(POOL):
        flavor = i % 3
        a, b, c = (draw_point(space, rng, flavor) for _ in range(3))
        if rng.random() < 0.5:
            d = p_add(c, equal_length_mate(space, rng, p_sub(b, a)))
        else:
            d = draw_point(space, rng, flavor)
        pool.append((a, b, c, d))
    a, b = rand_point(space, rng), rand_point(space, rng)
    ia = Point(3, -4)
    pool += [(a, a, b, b), (a, b, a, b), (a, a, a, a), (a, b, b, a), (a, a, a, b), (ia, ia, ia, Point(0, 0))]
    return pool


def triple_pool(space, seed):
    """Three-point configurations: on a segment, on a box path, or random."""
    rng = random.Random(f"kernel-triples:{space.norm.kind}:{seed}")
    pool = []
    for i in range(POOL):
        if i % 4 == 0:
            pool.append(collinear_triple(space, rng))
        elif i % 4 == 1:
            pool.append(box_path_triple(space, rng))
        else:
            flavor = i % 3
            pool.append(tuple(draw_point(space, rng, flavor) for _ in range(3)))
    a, b = rand_point(space, rng), rand_point(space, rng)
    pool += [(a, a, a), (a, a, b), (a, b, b), (a, b, a), (Point(0, 0), Point(1, 1), Point(2, 2))]
    return pool


# ----------------------------------------------------------------------
# comparison methods
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", NORMS)
def test_eq_dist_and_le_dist(kind):
    space = exact_space(kind)
    hits = 0
    for a, b, c, d in quad_pool(space, 1):
        ab, cd = ref_len(kind, a, b), ref_len(kind, c, d)
        assert space.eq_dist(a, b, c, d) == (ab == cd)
        assert space.le_dist(a, b, c, d) == (ab <= cd)
        hits += ab == cd
    assert POOL // 4 < hits < POOL


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("q", SCALES, ids=str)
def test_scaled_comparisons(kind, q):
    space = exact_space(kind)
    for i, (a, b, c, d) in enumerate(quad_pool(space, 2)):
        if i % 2:  # d(a,b) = q * d(c,d) by homogeneity
            b = p_add(a, Point(F(q) * (d.x - c.x), F(q) * (d.y - c.y)))
        sign = ref_scaled_sign(kind, a, b, q, c, d)
        assert space.eq_dist_scaled(a, b, q, c, d) == (sign == 0)
        assert space.le_dist_scaled(a, b, q, c, d) == (sign <= 0)
        assert space.ge_dist_scaled(a, b, q, c, d) == (sign >= 0)


@pytest.mark.parametrize("kind", NORMS)
def test_path_sum_eq(kind):
    space = exact_space(kind)
    hits = 0
    for a, b, c in triple_pool(space, 3):
        want = ref_path_sum_eq(kind, a, b, c)
        assert space.path_sum_eq(a, b, c) == want
        hits += want
    assert POOL // 4 < hits < POOL


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("coeff", DEFECTS, ids=str)
def test_path_defect_at_most(kind, coeff):
    space = exact_space(kind)
    for a, b, c in triple_pool(space, 4):
        assert space.path_defect_at_most(a, b, c, coeff) == ref_defect_at_most(kind, a, b, c, coeff)


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("factor", (1, 7, 2**5))
def test_scaled_ratio_ceil(kind, factor):
    space = exact_space(kind)
    for a, b, c, d in quad_pool(space, 5):
        if ref_len(kind, c, d) == 0:
            continue
        assert space.scaled_ratio_ceil(factor, (a, b), (c, d)) == ref_ratio_ceil(kind, factor, a, b, c, d)


@pytest.mark.parametrize("kind", NORMS)
def test_sphere_precondition_is_the_annulus(kind):
    space = exact_space(kind)
    rng = random.Random(f"kernel-annulus:{kind}")
    meets = 0
    for a, b, c, d in quad_pool(space, 6):
        u = ref_len(kind, a, b)
        if kind == "l2":
            u = F(math.isqrt(u.numerator), math.isqrt(u.denominator) or 1)
        radius_c = u * F(rng.randint(0, 8), rng.randint(1, 4))
        radius_d = u * F(rng.randint(0, 8), rng.randint(1, 4))
        want = ref_annulus(kind, c, radius_c, d, radius_d)
        try:
            sphere_intersection_point(space, c, radius_c, d, radius_d)
            got = True
        except ExactBackendRefusedError:
            got = True  # exact l2 refuses only after the annulus check passed
        except NoIntersectionError:
            got = False
        assert got == want
        meets += want
    assert 0 < meets < POOL


@pytest.mark.parametrize("kind", NORMS)
def test_length_values(kind):
    space = exact_space(kind)
    rational = irrational = 0
    pythagorean = [(Point(1, F(1, 2)), Point(4, F(9, 2)), Point(0, 0), Point(F(5, 3), 4))]
    for a, b, c, d in quad_pool(space, 9) + pythagorean:
        ab = ref_root(kind, ref_len(kind, a, b))
        if ab is None:
            irrational += 1
            with pytest.raises(ExactBackendRefusedError):
                space.length_value(a, b)
            assert not space.length_is(a, b, F(math.isqrt(math.floor(ref_len(kind, a, b)))))
        else:
            rational += 1
            assert space.length_value(a, b) == ab
            assert space.length_is(a, b, ab) and space.length_is(a, b, int(ab)) == (ab == int(ab))
            assert not space.length_is(a, b, ab + F(1, 10**9 + 7))
        if ref_len(kind, c, d) == 0:
            continue
        ratio = ref_root(kind, ref_len(kind, a, b) / ref_len(kind, c, d))
        if ratio is None:
            with pytest.raises(ExactBackendRefusedError):
                space.length_ratio(a, b, c, d)
        else:
            assert space.length_ratio(a, b, c, d) == ratio
    assert rational > 10 and (irrational > POOL // 2 if kind == "l2" else irrational == 0)


def test_kernel_is_not_part_of_space_identity():
    a, b = Space(NormSpec("l2"), "exact"), Space(NormSpec("l2"), "exact")
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Space(norm=NormSpec(kind='l2', p=None), backend='exact', tolerance=0.0)"
    assert space_to_config(a) == {"norm": "l2", "backend": "exact", "tolerance": 0.0}
    assert a != Space(NormSpec("l1"), "exact")


# ----------------------------------------------------------------------
# oracles with exact coordinate paths
# ----------------------------------------------------------------------


def near(rng, p):
    """p, or p nudged by a tiny rational so that exact tests must see it."""
    if rng.random() < 0.5:
        return p
    return Point(p.x + F(1, 10**9 + 7), p.y)


@pytest.mark.parametrize("kind", NORMS)
def test_affine_oracles(kind):
    space = exact_space(kind)
    rng = random.Random(f"kernel-affine:{kind}")
    hits = 0
    for a, b, c, _ in quad_pool(space, 7):
        n, k = rng.randint(1, 9), rng.randint(1, 6)
        m = near(rng, affine_combination(a, c, F(1, 2)))
        x = near(rng, affine_combination(a, b, n))
        y = near(rng, affine_combination(a, b, F(1, 2**k)))
        want_m = not ref_points_eq(a, c) and ref_on_line_at(m, a, c, F(1, 2))
        assert oracle_midpoint(space, a, m, c) == want_m
        assert oracle_midpoint(space, a, b, c) == (not ref_points_eq(a, c) and ref_on_line_at(b, a, c, F(1, 2)))
        assert oracle_alpha(space, n, a, b, x) == (not ref_points_eq(a, b) and ref_on_line_at(x, a, b, n))
        assert oracle_beta(space, k, a, b, y) == (not ref_points_eq(a, b) and ref_on_line_at(y, a, b, F(1, 2**k)))
        hits += want_m
    assert POOL // 4 < hits < POOL


@pytest.mark.parametrize("kind", NORMS)
def test_betweenness_collinearity_parallelogram(kind):
    space = exact_space(kind)
    rng = random.Random(f"kernel-between:{kind}")
    between = 0
    for a, b, c in triple_pool(space, 8):
        for p, q, r in ((a, b, c), (b, a, c), (a, c, b), (a, a, c), (a, c, c)):
            want = ref_B(p, q, r)
            assert oracle_B(space, p, q, r) == want
            between += want
        q = near(rng, b)
        assert oracle_collinear(space, a, q, c) == (ref_cross(a, q, c) == 0)
        d = p_add(c, p_sub(a, q)) if rng.random() < 0.5 else near(rng, p_add(c, p_sub(a, q)))
        want_par = (F(q.x) - a.x, F(q.y) - a.y) == (F(c.x) - d.x, F(c.y) - d.y) and ref_cross(a, q, c) != 0
        assert oracle_parallelogram(space, a, q, c, d) == want_par
    assert between > POOL


@pytest.mark.parametrize("p", [3.0, 1.5, 11 / 10])
def test_lp_length_scales_only_past_the_double_range(p):
    from equitower.kernel import _lp_length

    rng = random.Random(int(p * 10))
    for _ in range(2000):
        x, y = (rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 100) for _ in range(2))
        # every length the plain form reaches stays the same double
        assert _lp_length(p, x, y) == (abs(x) ** p + abs(y) ** p) ** (1.0 / p)
    for x, y in ((1e308, 0.0), (0.0, -1e308), (6e307, -8e307), (1e307, 1e307)):
        with pytest.raises(OverflowError):
            abs(max(x, y, key=abs)) ** p
        m = max(abs(x), abs(y))
        length = _lp_length(p, x, y)
        assert math.isfinite(length) and m <= length <= 2 * m
