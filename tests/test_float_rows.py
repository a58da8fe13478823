"""Float map fuzzing on coordinate rows, against references over points.

* ``FloatKernel.between`` and ``collinear`` against the arithmetic kept in
  ``float_between``: seeded random, degenerate and near-tolerance triples,
  and integer-coordinate points, which float spaces accept;
* the float sample rows against ``rand_point`` and the reference draws of
  ``test_preservation``, draw for draw;
* every entry point against ``test_preservation``'s pointwise reference on
  float l1, linf and lp(3).
"""

import math
import random

import pytest

import test_preservation as pointwise
from equitower import L1, L2, LINF, Point, Space
from equitower.geometry import affine_combination, lp
from equitower.oracles import oracle_B, oracle_collinear
from equitower.preservation import _coordinates, _draw_quadruples, _draw_triples, run_similarity_sweep
from equitower.sampling import rand_point
from float_between import ref_between, ref_collinear, ref_dist

NORMS = [L1, L2, LINF, lp(3), lp("3/2")]
PLANES = [Space(norm, "float", tol) for norm in NORMS for tol in (0.0, 1e-9, 1e-4)]


def plane_id(space):
    return f"{space.label()}-tol{space.tolerance:g}"


def assert_like_reference(space, triples):
    """Kernel and oracles agree with the reference on every triple; the
    outcomes seen, so that a case list that never reaches one side shows."""
    seen = set()
    for a, b, c in triples:
        want = ref_between(space, a, b, c)
        assert space.kernel.between(a, b, c) == want, (a, b, c)
        assert oracle_B(space, a, b, c) == want, (a, b, c)
        assert oracle_collinear(space, a, b, c) == ref_collinear(space, a, b, c), (a, b, c)
        seen.add(want)
    return seen


@pytest.mark.parametrize("space", PLANES, ids=plane_id)
def test_between_matches_the_reference_on_random_triples(space):
    rng = random.Random(17)
    triples = []
    for _ in range(1500):
        a, c = rand_point(space, rng), rand_point(space, rng)
        pick = rng.random()
        if pick < 0.5:
            t = rng.choice((0.0, 1.0, rng.random(), rng.uniform(-0.5, 1.5)))
            b = affine_combination(a, c, t)
        else:
            b = rand_point(space, rng)
        triples.append((a, b, c))
    assert assert_like_reference(space, triples) == {True, False}


@pytest.mark.parametrize("space", PLANES, ids=plane_id)
def test_between_matches_the_reference_on_degenerate_triples(space):
    rng = random.Random(18)
    triples = []
    for _ in range(200):
        a, b = rand_point(space, rng), rand_point(space, rng)
        nudge = 0.5 * space.tolerance
        near_a = Point(a.x + nudge, a.y - nudge)
        triples += [
            (a, a, a),  # a = b = c
            (a, b, a),  # a = c, b elsewhere
            (a, near_a, a),  # a = c, b within the tolerance of a
            (a, a, b),  # b = a
            (a, b, near_a),  # c within the tolerance of a
        ]
    assert assert_like_reference(space, triples) == {True, False}


@pytest.mark.parametrize("space", PLANES, ids=plane_id)
def test_between_matches_the_reference_at_the_tolerance(space):
    rng = random.Random(19)
    tol = space.tolerance
    triples = []
    for _ in range(200):
        a, c = rand_point(space, rng), rand_point(space, rng)
        qx, qy = c.x - a.x, c.y - a.y
        norm2 = qx * qx + qy * qy
        if norm2 == 0.0:
            continue
        # b off the line ac by a cross product of k * tol * scale, on either side
        s = rng.random()
        px, py = s * qx, s * qy
        scale = max(1.0, abs(qx), abs(qy)) * max(1.0, abs(px), abs(py))
        for k in (0.5, 0.999, 1.0, 1.001, 2.0):
            for sign in (1.0, -1.0):
                e = sign * k * tol * scale / norm2
                triples.append((a, Point(a.x + px - e * qy, a.y + py + e * qx), c))
        # b on the line at t around -tol and 1 + tol
        for t in (-2 * tol, -tol, -tol / 2, 1 + tol / 2, 1 + tol, 1 + 2 * tol):
            triples.append((a, Point(a.x + t * qx, a.y + t * qy), c))
    seen = assert_like_reference(space, triples)
    assert seen == {True, False}


@pytest.mark.parametrize("space", PLANES, ids=plane_id)
def test_between_matches_the_reference_on_integer_points(space):
    rng = random.Random(20)

    def lattice_point():
        return Point(rng.randint(-6, 6), rng.randint(-6, 6))  # an ExactPoint with W = 1

    triples = []
    for _ in range(400):
        a, b, c = lattice_point(), lattice_point(), lattice_point()
        space.check_point(a)
        triples.append((a, b, c))
        triples.append((a, affine_combination(a, c, rng.randint(-2, 6) / 4), c))  # a float b
        triples.append((Point(float(a.x), float(a.y)), b, c))  # a float a
    assert assert_like_reference(space, triples) == {True, False}


FLOAT_NORM_PLANES = [Space(norm, "float") for norm in NORMS] + [Space(L2, "float", 1e-9)]


def ref_eq_dist(space, a, b, c, d):
    u, v = ref_dist(space, a, b), ref_dist(space, c, d)
    return abs(u - v) <= space.tolerance * max(1.0, abs(u), abs(v))


def row(points):
    return tuple(v for p in points for v in (p.x, p.y))


@pytest.mark.parametrize("space", FLOAT_NORM_PLANES, ids=plane_id)
def test_float_point_draws_as_rand_point(space):
    drawn, ref = random.Random(5), random.Random(5)
    for _ in range(5000):
        p = rand_point(space, ref)
        x, y = _coordinates(drawn, False)
        assert (x, y) == (p.x, p.y) and isinstance(x, float) and isinstance(y, float)
    assert drawn.random() == ref.random()


@pytest.mark.parametrize("space", FLOAT_NORM_PLANES, ids=plane_id)
def test_float_rows_are_the_reference_draws(space):
    drawn, ref = random.Random(31), random.Random(31)
    quads = _draw_quadruples(space, drawn, 400)
    triples = _draw_triples(space, drawn, 400)
    ref_quads = pointwise._ref_quadruples(space, ref, 400)
    ref_triples = pointwise._ref_triples(space, ref, 400)
    assert quads.samples == [row(q) for q in ref_quads]
    assert triples.samples == [row(t) for t in ref_triples]
    assert all(isinstance(v, float) for sample in quads.samples + triples.samples for v in sample)
    assert quads.pre == [ref_eq_dist(space, *q) for q in ref_quads]
    assert triples.pre == [ref_between(space, *t) for t in ref_triples]
    assert any(quads.pre) and not all(quads.pre) and any(triples.pre)
    assert drawn.random() == ref.random()


@pytest.mark.parametrize("space", [Space(L1, "float"), Space(LINF, "float"), Space(lp(3), "float")], ids=plane_id)
def test_float_entry_points_match_the_pointwise_reference(space):
    pointwise.test_entry_points_match_a_pointwise_reference(space)
    maps = pointwise._diff_maps(space)
    rng = random.Random(77)
    pool = (pointwise._ref_quadruples(space, rng, 120), pointwise._ref_triples(space, rng, 60))
    for plane_map, rep in zip(maps, run_similarity_sweep(space, maps, 120, 60, 77)):
        assert pointwise._observed(rep) == pointwise._ref_classify(space, plane_map, *pool), plane_map.label


def test_lengths_are_the_reference_norms():
    rng = random.Random(21)
    for norm in NORMS:
        space = Space(norm, "float")
        for _ in range(300):
            a, b = rand_point(space, rng), rand_point(space, rng)
            want = ref_dist(space, a, b)
            assert space.kernel.dist(a, b) == want
            assert space.kernel.length(a.x - b.x, a.y - b.y) == want
            assert math.isfinite(want)
