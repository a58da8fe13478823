"""The integer draw of ``equitower.sampling`` against ``random.Random``.

``randint`` and ``choice`` replace ``rng.randint`` and ``rng.choice`` in
every sampler, so seeded reports keep their bytes only while both draw
exactly what the library draws, from the same generator state.
"""

import random

import pytest

from equitower.sampling import choice, randint

SEEDS = range(120)
# widths 1, 2^k, 2^k + 1 and 10^12, at offsets that cross zero
RANGES = [(0, 0), (-7, -7), (5, 5), (0, 1), (-2, 1), (1, 8), (-4, 11), (0, 1023), (3, 2**20 + 2),
          (0, 2), (-1, 7), (1, 9), (0, 1024), (-512, 512), (-(2**31), 2**31), (1, 10**12), (-(10**12) + 1, 0)]


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
