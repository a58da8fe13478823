"""Per-call micro-timings of the predicates every layer bottoms out in.

Pools are drawn from the run seed with ``equitower.sampling``, the samplers
the workloads use, so the timed arguments look like workload arguments.
Each predicate's count of True answers on its pool is recorded too: it is
deterministic for a seed, so a kernel change that alters an answer shows
as a changed count rather than only as a changed time.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

POOL = 300
REPEATS = 5
PREDICATES = ("eq_dist", "le_dist_scaled", "path_sum_eq")
PLANES = tuple((norm, backend) for norm in ("l1", "l2", "linf") for backend in ("exact", "float"))
SPHERE_PLANES = (("l1", "exact"), ("linf", "exact"), ("l2", "float"))
SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))


def _per_call_us(fn, pool) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in pool:
            fn(*args)
        runs.append((time.perf_counter_ns() - t0) / len(pool) / 1e3)
    return statistics.median(runs)


def _predicate_pools(pkg, space, rng: random.Random) -> dict[str, list[tuple]]:
    s = pkg.sampling
    quads = []
    for _ in range(POOL):
        a, b, c = (s.rand_point(space, rng) for _ in range(3))
        if rng.random() < 0.5:  # constructed congruent pair: the interesting half
            mate = s.equal_length_mate(space, rng, pkg.geometry.p_sub(b, a))
            d = pkg.geometry.p_add(c, mate)
        else:
            d = s.rand_point(space, rng)
        quads.append((a, b, c, d))
    triples = []
    for i in range(POOL):
        if i % 3 == 0:
            triples.append(s.collinear_triple(space, rng))
        elif i % 3 == 1:
            triples.append(s.box_path_triple(space, rng))
        else:
            triples.append(tuple(s.rand_point(space, rng) for _ in range(3)))
    return {
        "eq_dist": quads,
        "le_dist_scaled": [(a, b, rng.choice(SCALES), c, d) for a, b, c, d in quads],
        "path_sum_eq": triples,
    }


def _sphere_pool(pkg, space, rng: random.Random) -> list[tuple]:
    """(c, R, d, r) with |R - r| <= d(c,d) <= R + r, so a meeting point exists."""
    s = pkg.sampling
    pool = []
    for _ in range(POOL):
        c = s.rand_point(space, rng)
        d = pkg.geometry.p_add(c, s.rand_nonzero_vector(space, rng))
        gap = pkg.geometry.distance(space, c, d)
        u = Fraction(1, 2) + s.rand_unit_fraction(rng) / 2
        v = Fraction(1, 2) + s.rand_unit_fraction(rng) / 2
        if space.backend == "float":
            u, v = float(u), float(v)
        pool.append((space, c, gap * u, d, gap * v))
    return pool


def _radical_pool(pkg, rng: random.Random) -> list[tuple]:
    """The comparisons path_defect_at_most makes on exact l2 at the default depth."""
    space = pkg.geometry.Space(pkg.geometry.NormSpec("l2"), "exact", 0.0)
    Rad = pkg.scalars.Rad
    keep = 1 - Fraction(2, 2 ** pkg.schemas.TruncationParams().K)
    pool = []
    for i in range(POOL):
        if i % 2:
            a, b, c = pkg.sampling.collinear_triple(space, rng)
        else:
            a, b, c = (pkg.sampling.rand_point(space, rng) for _ in range(3))
        left = (keep * Rad.sqrt(space.sq_dist(a, b)), Rad.sqrt(space.sq_dist(b, c)))
        pool.append((left, (Rad.sqrt(space.sq_dist(a, c)),)))
    return pool


def micro_metrics(pkg, seed: int) -> dict[str, tuple[float, str]]:
    """Predicate µs per call and True counts, keyed by metric name."""
    rng = random.Random(f"micro:{seed}")
    out: dict[str, tuple[float, str]] = {}
    Space, Norm = pkg.geometry.Space, pkg.geometry.NormSpec
    for norm, backend in PLANES:
        space = Space(Norm(norm), backend, 1e-9 if backend == "float" else 0.0)
        for pred, pool in _predicate_pools(pkg, space, rng).items():
            fn = getattr(space, pred)
            out[f"geometry.{pred}_us.{norm}.{backend}"] = (_per_call_us(fn, pool), "us")
            out[f"geometry.{pred}_true.{norm}.{backend}"] = (sum(1 for args in pool if fn(*args)), "count")
    for norm, backend in SPHERE_PLANES:
        space = Space(Norm(norm), backend, 1e-9 if backend == "float" else 0.0)
        pool = _sphere_pool(pkg, space, rng)
        out[f"geometry.sphere_intersection_us.{norm}.{backend}"] = (
            _per_call_us(pkg.geometry.sphere_intersection_point, pool), "us")
    pool = _radical_pool(pkg, rng)
    cmp = pkg.scalars.cmp_radical_sums
    out["scalars.cmp_radical_sums_us"] = (_per_call_us(cmp, pool), "us")
    out["scalars.cmp_radical_sums_le"] = (sum(1 for args in pool if cmp(*args) <= 0), "count")
    return out
