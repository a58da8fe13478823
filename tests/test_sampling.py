"""The integer draws of ``equitower.sampling`` against ``random.Random``.

``randint``, ``choice`` and ``point_draws`` replace ``rng.randint`` and
``rng.choice`` in every sampler, and map fuzzing writes the same rejection
loops out for its generators and betweenness ratios, so seeded reports
keep their bytes only while all of them draw exactly what the library
draws, from the same generator state.
"""

import random

import pytest

from equitower import L1, L2, LINF, Space
from equitower.preservation import _draw_quadruples, _draw_triples
from equitower.sampling import choice, generator_rows, point_draws, randint

SEEDS = range(120)
# widths 1, 2^k, 2^k + 1 and 10^12, at offsets that cross zero
RANGES = [(0, 0), (-7, -7), (5, 5), (0, 1), (-2, 1), (1, 8), (-4, 11), (0, 1023), (3, 2**20 + 2),
          (0, 2), (-1, 7), (1, 9), (0, 1024), (-512, 512), (-(2**31), 2**31), (1, 10**12), (-(10**12) + 1, 0)]
# (span, max_den) of the callers, (24, 8) and (12, 4), then numerator widths
# 2 * span + 1 and denominator widths at and next to powers of two
POINT_SHAPES = [(24, 8), (12, 4), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (15, 7), (16, 8), (16, 9),
                (31, 16), (32, 17), (511, 1023), (512, 1024), (0, 1025)]


@pytest.mark.parametrize("seed", SEEDS)
def test_randint_draws_what_random_randint_draws(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        for a, b in RANGES:
            assert randint(ours, a, b) == ref.randint(a, b), (seed, a, b)
            # the float stream interleaves with the integer one
            assert ours.random() == ref.random()
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_draws_what_random_choice_draws(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    pools = [("only",), (0, 1), tuple(range(3)), tuple(range(8)), tuple(range(9)), "abcdefghijklmnopq"]
    for _ in range(4):
        for pool in pools:
            assert choice(ours, pool) == ref.choice(pool), (seed, pool)
            assert randint(ours, -24, 24) == ref.randint(-24, 24)
            assert ours.random() == ref.random()
    assert ours.getstate() == ref.getstate()


def test_width_one_ranges_still_consume_the_stream():
    # randint(a, a) asks for one bit until it reads 0, as the library does
    ours, ref = random.Random(3), random.Random(3)
    for _ in range(200):
        assert randint(ours, 4, 4) == ref.randint(4, 4) == 4
    assert ours.getrandbits(32) == ref.getrandbits(32)


@pytest.mark.parametrize("seed", SEEDS)
def test_point_draws_are_four_random_randint_draws(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        for span, max_den in POINT_SHAPES:
            want = (ref.randint(-span, span), ref.randint(1, max_den), ref.randint(-span, span), ref.randint(1, max_den))
            assert point_draws(ours, span, max_den) == want, (seed, span, max_den)
            assert ours.random() == ref.random()
        assert point_draws(ours) == (ref.randint(-24, 24), ref.randint(1, 8), ref.randint(-24, 24), ref.randint(1, 8))
    assert ours.getstate() == ref.getstate()


_W = 840  # the lcm of 1..8, over which exact rows are drawn


def _ref_coordinates(rng, exact):
    xn, xd, yn, yd = rng.randint(-24, 24), rng.randint(1, 8), rng.randint(-24, 24), rng.randint(1, 8)
    return (xn * _W // xd, yn * _W // yd) if exact else (xn / xd, yn / yd)


def _ref_quadruple_rows(space, rng, n):
    """The quadruple rows, drawn with the library's randint and choice."""
    exact, rows = space.backend == "exact", []
    for _ in range(n):
        (ax, ay), (cx, cy), (bx, by) = (_ref_coordinates(rng, exact) for _ in range(3))
        if rng.random() < 0.5:  # d - c is b - a under a generator m/k
            m11, m12, m21, m22, k = rng.choice(generator_rows(space))
            ux, uy = bx - ax, by - ay
            dx, dy, w = k * cx + (m11 * ux + m12 * uy), k * cy + (m21 * ux + m22 * uy), k * _W
            ax, ay, bx, by, cx, cy = (k * v for v in (ax, ay, bx, by, cx, cy))
        else:
            (dx, dy), w = _ref_coordinates(rng, exact), _W
        rows.append((ax, ay, bx, by, cx, cy, dx, dy) + ((w,) if exact else ()))
    return rows


def _ref_triple_rows(space, rng, n):
    """The triple rows, with t = choice((0, 1, rand_unit_fraction)) on the library's draws."""
    exact, rows = space.backend == "exact", []
    for _ in range(n):
        (ax, ay), (cx, cy) = _ref_coordinates(rng, exact), _ref_coordinates(rng, exact)
        den = rng.randint(2, 16)
        num, den = rng.choice(((0, 1), (1, 1), (rng.randint(1, den - 1), den)))
        if exact:
            px, py = num * (cx - ax), num * (cy - ay)
            rows.append((den * ax, den * ay, den * ax + px, den * ay + py, den * cx, den * cy, den * _W))
        else:
            t = num / den
            rows.append((ax, ay, ax + t * (cx - ax), ay + t * (cy - ay), cx, cy))
    return rows


@pytest.mark.parametrize("seed", range(0, 120, 4))
@pytest.mark.parametrize(
    "space", [Space(L1, "exact"), Space(L2, "exact"), Space(LINF, "exact"), Space(L2, "float", 1e-9), Space(L1, "float")],
    ids=lambda s: s.label(),
)
def test_map_fuzzing_pools_are_the_library_draws(space, seed):
    ours, ref = random.Random(seed), random.Random(seed)
    assert _draw_quadruples(space, ours, 60).samples == _ref_quadruple_rows(space, ref, 60)
    assert ours.random() == ref.random()
    assert _draw_triples(space, ours, 60).samples == _ref_triple_rows(space, ref, 60)
    assert ours.getstate() == ref.getstate()
