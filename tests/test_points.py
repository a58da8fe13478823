"""Differential test of the point type against pairs of ``Fraction``s.

An exact point stores normalised integers (X, Y, W); every check here
restates what the point should mean in plain ``Fraction`` arithmetic
written in this file: the coordinates read back, equality and hashing,
``p_add``, ``p_sub``, ``affine_combination``, ``midpoint`` and the
deduplication of a ``Universe``.  Cases come from a seeded loop, and from
Hypothesis (with shrinking) when it is installed.
"""

import math
import random
from fractions import Fraction as F

import pytest

from equitower import L1, Point, Space, Universe
from equitower.geometry import ExactPoint, affine_combination, midpoint, p_add, p_sub

EXACT = Space(L1, "exact")


def check_round_trip(x, y):
    p = Point(x, y)
    assert type(p) is ExactPoint
    assert (p.x, p.y) == (x, y) and type(p.x) is F and type(p.y) is F
    px, py = p
    assert (px, py) == (x, y) == (p[0], p[1]) and len(p) == 2
    assert p.W > 0 and math.gcd(p.X, p.Y, p.W) == 1
    assert (F(p.X, p.W), F(p.Y, p.W)) == (x, y)
    assert ExactPoint(6 * p.X, 6 * p.Y, 6 * p.W) == p  # a common factor normalises away
    assert repr(p) == f"Point(x={F(x)!r}, y={F(y)!r})"


def check_equality(pairs):
    points = [Point(x, y) for x, y in pairs]
    for p, fp in zip(points, pairs):
        for q, fq in zip(points, pairs):
            assert (p == q) == (fp == fq)
            if p == q:
                assert hash(p) == hash(q)


def check_arithmetic(a, b, t):
    (ax, ay), (bx, by) = a, b
    pa, pb = Point(ax, ay), Point(bx, by)
    assert p_add(pa, pb) == Point(ax + bx, ay + by)
    assert p_sub(pa, pb) == Point(ax - bx, ay - by)
    for s in (t, F(1, 2), 0, 1, -2):
        got = affine_combination(pa, pb, s)
        assert (got.x, got.y) == (ax + s * (bx - ax), ay + s * (by - ay))
    got = midpoint(pa, pb)
    assert (got.x, got.y) == ((ax + bx) / 2, (ay + by) / 2)


def check_dedup(pairs):
    universe = Universe(EXACT, [Point(x, y) for x, y in pairs])
    assert [(p.x, p.y) for p in universe.points] == list(dict.fromkeys(pairs))


def rand_coordinate(rng: random.Random) -> F:
    den = rng.choice((1, 2, 3, 4, 6, 8, 12, 10**12 + 39))
    return F(rng.randint(-30 * den, 30 * den), den)


def test_seeded_loop():
    rng = random.Random("points")
    for _ in range(300):
        pairs = [(rand_coordinate(rng), rand_coordinate(rng)) for _ in range(6)]
        pairs += rng.sample(pairs, 3)  # repeats, as closures produce them
        pairs.append((F(0), F(0)))
        for x, y in pairs:
            check_round_trip(x, y)
        check_equality(pairs)
        check_arithmetic(pairs[0], pairs[1], rand_coordinate(rng))
        check_dedup(pairs)


def test_integer_coordinates_read_back_as_fractions():
    p = Point(3, -4)
    assert p == Point(F(3), F(-4)) == ExactPoint(6, -8, 2)
    assert (p.X, p.Y, p.W) == (3, -4, 1) and type(p.x) is F


def test_float_points_are_plain_pairs():
    p = Point(0.5, -1.0)
    assert type(p) is Point and p == (0.5, -1.0) and (p.x, p.y) == (0.5, -1.0)
    assert type(p.x) is float and hash(p) == hash((0.5, -1.0))
    assert p_add(p, p) == (1.0, -2.0) and midpoint(p, Point(1.5, 1.0)) == (1.0, 0.0)
    assert affine_combination(p, Point(1.5, 1.0), F(1, 4)) == (0.75, -0.5)
    assert Point(F(1, 2), F(-1)) != p  # an exact point is never a float point


def test_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coords = st.fractions(min_value=-40, max_value=40, max_denominator=64)
    pairs = st.lists(st.tuples(coords, coords), min_size=1, max_size=5)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(pairs, pairs, coords)
    def run(first, second, t):
        pool = first + second + first[:2]
        for x, y in pool:
            check_round_trip(x, y)
        check_equality(pool)
        check_arithmetic(first[0], second[0], t)
        check_dedup(pool)

    run()
