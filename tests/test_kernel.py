"""Differential test of the exact comparison kernels against Fraction arithmetic.

Every exact comparison method of ``Space`` and every oracle with its own
exact coordinate path is checked here against reference arithmetic written
in plain ``Fraction``s: l1/linf lengths, squared l2 lengths, and the
squaring identities for sums of l2 lengths.  The pools are seeded draws
from :mod:`equitower.sampling` (as the benchmark's micro-timings draw
them), plus coincident points, ``int`` coordinates and large denominators.
On every plane, exact and float, ``kernel.constructs`` is checked against
what sphere intersection and the layer verifier actually do.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from equitower import (
    ExactBackendRefusedError,
    TruncationParams,
    NoIntersectionError,
    NormSpec,
    Point,
    Space,
    affine_combination,
    lp,
    sphere_intersection_point,
)
from equitower.closure import SPHERE_BOUND_LAYERS
from equitower.formulas.verify import _SAMPLERS, verification_space, verify_layer
from equitower.geometry import p_add, p_sub
from equitower.oracles import (
    RelationId,
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
    assert a != Space(NormSpec("l1"), "exact")


# ----------------------------------------------------------------------
# what a plane can construct
# ----------------------------------------------------------------------

PLANES = [("l1", "exact"), ("linf", "exact"), ("l2", "exact"), ("l1", "float"), ("l2", "float"), ("linf", "float"), ("lp:3", "float")]
INDICES = {"PHI": (0,), "ALPHA": (3,), "BETA": (2,), "PSI": (3, 2), "DELTA": (3,)}


def plane_norm(label: str) -> NormSpec:
    return lp(3) if label == "lp:3" else NormSpec(label)


@pytest.mark.parametrize("label,backend", PLANES)
def test_constructs_is_whether_spheres_meet(label, backend):
    space = Space(plane_norm(label), backend, 1e-9 if backend == "float" else 0.0)
    assert space.kernel.constructs == ((label, backend) != ("l2", "exact"))
    c, d = space.point(0, 0), space.point(3, 1)
    for radius_c, radius_d in ((3, 3), (5, 2), (F(7, 2), F(1, 2))):
        assert space.kernel.annulus_ok(c, radius_c, d, radius_d)
        try:
            e = sphere_intersection_point(space, c, radius_c, d, radius_d)
        except ExactBackendRefusedError:
            e = None
        assert (e is not None) == space.kernel.constructs
        assert e is None or (space.length_is(c, e, radius_c) and space.length_is(d, e, radius_d))


@pytest.mark.parametrize("label", ["l1", "linf", "l2", "lp:3"])
def test_verification_space_asks_the_exact_kernel(label):
    norm = plane_norm(label)
    exact = None if label == "lp:3" else Space(norm, "exact").kernel  # lp has no exact kernel
    for name in _SAMPLERS:
        rel = RelationId(name, INDICES.get(name, ()))
        want_exact = exact is not None and (exact.constructs or name not in SPHERE_BOUND_LAYERS)
        assert (verification_space(rel, norm).backend == "exact") == want_exact, rel.label()
        if exact is None or name not in SPHERE_BOUND_LAYERS:
            continue
        if want_exact:  # the exact plane builds the witnesses it was picked for
            assert verify_layer(Space(norm, "exact"), rel, TruncationParams(), 4, 11).passed
        else:  # and refuses where the float plane is picked instead
            with pytest.raises(ExactBackendRefusedError):
                verify_layer(Space(norm, "exact"), rel, TruncationParams(), 30, 11)


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
    plain = 0
    for _ in range(2000):
        x, y = (rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 100) for _ in range(2))
        m, length = max(abs(x), abs(y)), _lp_length(p, x, y)
        if abs(x) ** p + abs(y) ** p >= sys.float_info.min:
            # every length whose power sum is a normal double stays the plain form's double
            assert length == (abs(x) ** p + abs(y) ** p) ** (1.0 / p)
            plain += 1
        else:  # a power sum that underflows is taken scaled, so a nonzero vector keeps a nonzero length
            assert 0 < m <= length <= 2 * m
    assert 1000 < plain < 2000
    for x, y in ((1e308, 0.0), (0.0, -1e308), (6e307, -8e307), (1e307, 1e307)):
        with pytest.raises(OverflowError):
            abs(max(x, y, key=abs)) ** p
        m = max(abs(x), abs(y))
        length = _lp_length(p, x, y)
        assert math.isfinite(length) and m <= length <= 2 * m
    for x, y in ((1e-300, 0.0), (0.0, -1e-320), (5e-324, 5e-324), (3e-290, -1e-295)):
        assert abs(x) ** p + abs(y) ** p < sys.float_info.min
        m = max(abs(x), abs(y))
        assert 0 < m <= _lp_length(p, x, y) <= 2 * m
    assert _lp_length(p, 0.0, -0.0) == 0.0


# ----------------------------------------------------------------------
# the float kernel and exact-l2 vector lengths against plain arithmetic
# ----------------------------------------------------------------------

FLOAT_LABELS = ("l1", "l2", "linf", "lp:3")
FLOAT_SCALES = ((0, 1), (1, 2), (1, 1), (2, 1), (7, 3), (3, 7))
FLOAT_TOL = 1e-9
NUDGES = (0.0, 0.5, -0.5, 2.0, -2.0, 30.0)  # relative shifts in units of the tolerance, both sides of a tie


def plain_len(label, x, y):
    x, y = abs(x), abs(y)
    if label == "l1":
        return x + y
    if label == "linf":
        return max(x, y)
    if label == "l2":
        return math.hypot(x, y)
    return (x**3.0 + y**3.0) ** (1.0 / 3.0)


def plain_eq(u, v):
    return abs(u - v) <= FLOAT_TOL * max(1.0, abs(u), abs(v))


def plain_le(u, v):
    return u <= v + FLOAT_TOL * max(1.0, abs(u), abs(v))


def float_space(label):
    return Space(plane_norm(label), "float", FLOAT_TOL)


def float_point(rng):
    return Point(rng.uniform(-50, 50), rng.uniform(-50, 50))


def nudged(a, b, rng):
    """b moved along ab by a few tolerances of its length, or left as it is."""
    t = 1.0 + rng.choice(NUDGES) * FLOAT_TOL
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


@pytest.mark.parametrize("label", FLOAT_LABELS)
@pytest.mark.parametrize("qn, qd", FLOAT_SCALES)
def test_float_scaled_comparisons_match_plain_doubles(label, qn, qd):
    space = float_space(label)
    rng = random.Random(f"float-scaled:{label}:{qn}/{qd}")
    ties = 0
    for i in range(400):
        a, b, c, d = (float_point(rng) for _ in range(4))
        if i % 2:  # d(a,b) = q * d(c,d) by homogeneity, then nudged across the tolerance
            b = nudged(a, Point(a.x + qn / qd * (d.x - c.x), a.y + qn / qd * (d.y - c.y)), rng)
        ab, rhs = plain_len(label, a.x - b.x, a.y - b.y), qn / qd * plain_len(label, c.x - d.x, c.y - d.y)
        eq = plain_eq(ab, rhs)
        assert space.eq_dist_scaled(a, b, F(qn, qd), c, d) == eq
        assert space.le_dist_scaled(a, b, F(qn, qd), c, d) == plain_le(ab, rhs)
        assert space.ge_dist_scaled(a, b, F(qn, qd), c, d) == plain_le(rhs, ab)
        ties += eq
    assert 60 < ties < 400


@pytest.mark.parametrize("label", FLOAT_LABELS)
def test_float_path_sum_eq_matches_plain_doubles(label):
    space = float_space(label)
    rng = random.Random(f"float-path:{label}")
    hits = 0
    for i in range(600):
        a, c = float_point(rng), float_point(rng)
        if i % 2:  # on segment ac, then nudged off it along ab
            t = rng.random()
            b = nudged(a, Point(a.x + t * (c.x - a.x), a.y + t * (c.y - a.y)), rng)
        else:
            b = float_point(rng)
        want = plain_eq(plain_len(label, a.x - b.x, a.y - b.y) + plain_len(label, b.x - c.x, b.y - c.y),
                        plain_len(label, a.x - c.x, a.y - c.y))
        assert space.path_sum_eq(a, b, c) == want
        hits += want
    assert 150 < hits < 600


@pytest.mark.parametrize("kind", ("l1", "linf"))
def test_float_box_kernel_agrees_with_the_exact_one_on_integer_grids(kind):
    # small integer coordinates make every float box length exact, and with
    # q's denominator at most 3 two different values differ by at least 1/3,
    # far above the tolerance
    exact, floats = exact_space(kind), float_space(kind)
    rng = random.Random(f"float-grid:{kind}")

    def pair():
        xy = [rng.randint(-40, 40) for _ in range(2)]
        return Point(*xy), Point(*map(float, xy))

    for _ in range(600):
        (a, fa), (b, fb), (c, fc), (d, fd) = (pair() for _ in range(4))
        q = F(rng.randint(0, 7), rng.randint(1, 3))
        if rng.random() < 0.5:  # a path through b when b lies in the box of a and c
            b, fb = Point(a.x, c.y), Point(fa.x, fc.y)
        assert floats.path_sum_eq(fa, fb, fc) == exact.path_sum_eq(a, b, c)
        for method in ("eq_dist_scaled", "le_dist_scaled", "ge_dist_scaled"):
            assert getattr(floats, method)(fa, fb, q, fc, fd) == getattr(exact, method)(a, b, q, c, d)


def test_exact_l2_vector_length_is_the_integer_square_sum():
    from equitower.kernel import sq_length

    length = exact_space("l2").kernel.vector_length
    rng = random.Random("exact-l2-vector")
    for _ in range(2000):
        x, y = (rng.choice((0, rng.randint(-9, 9), rng.randint(-10**12, 10**12))) for _ in range(2))
        want = sq_length(Point(0, 0), Point(x, y))[0]
        assert want == x * x + y * y
        assert length(x, y) == want and length(y, -x) == want
