"""Layer-by-layer verification: formula semantics against analytic oracles.

For a relation R, ``verify_layer`` evaluates R as a formula (every strictly
lower layer answered by its oracle) over a witness/refuter-closed universe,
and compares the verdict with R's own oracle on biased samples that include
constructed positives, random instances, near-misses, and degenerate
configurations.  Agreement on every sample is the contract the closure
module promises.

A relation is layer-verifiable exactly when it has a sampler in
``_SAMPLERS``.  Its oracle and formal points come from
:data:`equitower.oracles.RELATIONS`, its formula from ``schemas._EXPANSIONS``
and its universe from :func:`equitower.closure.closure_for_relation`.

Backend policy: everything verifies on the exact backend except lp norms,
which are float-only, and the layers whose closures need sphere-sphere
intersections (``closure.SPHERE_BOUND_LAYERS``) on a plane whose exact
kernel does not construct (l2); they verify on the float backend at the
default tolerance instead.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from ..closure import SPHERE_BOUND_LAYERS, closure_for_relation
from ..geometry import (
    NormSpec,
    Point,
    Space,
    affine_combination,
    midpoint,
    p_add,
    p_sub,
    point_to_record,
)
from ..oracles import RelationId, oracle_truth
from ..sampling import (
    box_path_triple,
    collinear_triple,
    equal_length_mate,
    rand_fraction,
    rand_nonzero_vector,
    rand_point,
    rand_unit_fraction,
    randint,
    scale_vector,
)
from .evaluator import ImplMap, _Evaluator, schema_query
from .schemas import SchemaError, TruncationParams


def verification_space(rel: RelationId, norm: NormSpec, tolerance: float = 1e-9) -> Space:
    """Exact backend wherever witness construction is exact; float otherwise."""
    if norm.kind != "lp":  # lp is float-only
        exact = Space(norm, "exact")
        if exact.kernel.constructs or rel.name not in SPHERE_BOUND_LAYERS:
            return exact
    return Space(norm, "float", tolerance)


@dataclass
class LayerReport:
    relation: str
    norm: str
    backend: str
    tolerance: float
    trunc: dict
    samples: int = 0
    agreements: int = 0
    counterexamples: list = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return asdict(self)


def verify_layer(
    space: Space,
    rel: RelationId,
    trunc: TruncationParams,
    samples: int,
    seed: int,
) -> LayerReport:
    """Compare formula evaluation with the oracle on ``samples`` biased draws."""
    if rel.name not in _SAMPLERS:
        raise SchemaError(f"{rel.label()} is not layer-verifiable")
    if rel.name == "PHI" and rel.indices[0] >= 1:
        raise SchemaError("PHI stages >= 1 have no finite-stage oracle; excluded from verification")
    rng = random.Random(seed)
    query, params = schema_query(rel)
    impl = ImplMap.layered(rel.name)
    report = LayerReport(
        relation=rel.label(),
        norm=space.norm.label(),
        backend=space.backend,
        tolerance=space.tolerance,
        trunc=trunc.to_dict(),
        seed=seed,
    )
    for _ in range(samples):
        pts = sample_instance(space, rng, rel, trunc)
        universe = closure_for_relation(space, rel, pts, trunc)
        want = oracle_truth(space, rel, pts)
        evaluator = _Evaluator(space, universe, trunc, impl)
        got = evaluator.run(query, dict(zip(params, pts)), {})
        report.samples += 1
        if got == want:
            report.agreements += 1
        else:
            report.counterexamples.append(
                {
                    "inputs": [point_to_record(space, p) for p in pts],
                    "universe": universe.to_records(),
                    "formula": got,
                    "oracle": want,
                }
            )
    return report


# ----------------------------------------------------------------------
# relation-biased samplers
# ----------------------------------------------------------------------


def _offset(space: Space, rng: random.Random) -> Point:
    """A small but tolerance-safe perturbation vector."""
    base = Fraction(randint(rng, 1, 9), 8)
    if space.backend == "float":
        return Point(float(base) * 1e-3, float(base) * 7e-4)
    return Point(base / 64, base / 128)


def _degenerate_quadruple(space: Space, rng: random.Random, a: Point, c: Point, d: Point) -> tuple[Point, ...]:
    """(a, b, c, d) with a null segment ab, cd or both."""
    pick = rng.random()
    if pick < 0.34:
        return a, a, c, d
    if pick < 0.67:
        return a, rand_point(space, rng), c, c
    return a, a, c, c


def _degenerate_triple(space: Space, rng: random.Random, a: Point, c: Point) -> tuple[Point, ...]:
    """(a, b, c) with two of the points equal."""
    pick = rng.random()
    if pick < 0.34:
        return a, a, c
    if pick < 0.67:
        return a, c, c
    return a, rand_point(space, rng), a


def sample_instance(
    space: Space, rng: random.Random, rel: RelationId, trunc: TruncationParams | None = None
) -> tuple[Point, ...]:
    sampler = _SAMPLERS.get(rel.name)
    if sampler is None:
        raise SchemaError(f"no sampler for {rel.label()}")
    return sampler(space, rng, trunc if trunc is not None else TruncationParams(), *rel.indices)


def _sample_equiv2(space: Space, rng: random.Random, trunc: TruncationParams) -> tuple[Point, ...]:
    roll = rng.random()
    c = rand_point(space, rng)
    d = rand_point(space, rng)
    a = rand_point(space, rng)
    if roll < 0.45:  # constructed positive: d(a,b) = 2 d(c,d)
        w = equal_length_mate(space, rng, p_sub(d, c))
        b = p_add(a, scale_vector(space, w, Fraction(2)))
        return a, b, c, d
    if roll < 0.55:  # near-miss
        w = equal_length_mate(space, rng, p_sub(d, c))
        b = p_add(p_add(a, scale_vector(space, w, Fraction(2))), _offset(space, rng))
        return a, b, c, d
    if roll < 0.70:  # degenerate pairs
        return _degenerate_quadruple(space, rng, a, c, d)
    return a, rand_point(space, rng), c, d


def _sample_phi(space: Space, rng: random.Random, trunc: TruncationParams, n: int) -> tuple[Point, ...]:
    a = rand_point(space, rng)
    b = rand_point(space, rng)
    roll = rng.random()
    if roll < 0.4:
        return a, b, midpoint(a, b)
    if roll < 0.5:
        return a, a, rand_point(space, rng)
    return a, b, rand_point(space, rng)


def _sample_scaled_point(space: Space, rng: random.Random, t: Fraction) -> tuple[Point, ...]:
    a = rand_point(space, rng)
    v = rand_nonzero_vector(space, rng)
    b = p_add(a, v)
    roll = rng.random()
    if roll < 0.45:
        return a, b, affine_combination(a, b, t)
    if roll < 0.55:
        return a, b, affine_combination(a, b, -t)  # wrong ray
    if roll < 0.65:
        return a, b, p_add(affine_combination(a, b, t), _offset(space, rng))
    if roll < 0.75:
        return a, a, rand_point(space, rng)  # degenerate base pair
    if roll < 0.85:
        q = rand_fraction(rng, span=6, max_den=4)
        return a, b, affine_combination(a, b, q)
    return a, b, rand_point(space, rng)


def _sample_psi(space: Space, rng: random.Random, trunc: TruncationParams, n: int, k: int) -> tuple[Point, ...]:
    a = rand_point(space, rng)
    v = rand_nonzero_vector(space, rng)
    b = p_add(a, v)
    c = rand_point(space, rng)
    lo = Fraction(n - 1, 2**k)
    hi = Fraction(n + 1, 2**k)
    roll = rng.random()
    if roll < 0.5:  # inside (or on) the annulus
        pick = rng.random()
        if pick < 0.2:
            q = lo
        elif pick < 0.4:
            q = hi
        else:
            q = lo + (hi - lo) * rand_unit_fraction(rng)
        d = p_add(c, scale_vector(space, equal_length_mate(space, rng, v), q))
        return a, b, c, d
    if roll < 0.7:  # outside
        if rng.random() < 0.5 or lo == 0:
            q = hi + hi * rand_unit_fraction(rng) + Fraction(1, 4)
        else:
            q = lo * rand_unit_fraction(rng) * Fraction(1, 2)
        d = p_add(c, scale_vector(space, equal_length_mate(space, rng, v), q))
        return a, b, c, d
    if roll < 0.85:  # degenerate conjuncts
        if rng.random() < 0.5:
            return a, a, c, rand_point(space, rng)
        return a, b, c, c
    return a, b, c, rand_point(space, rng)


def _perp_offset(space: Space, a: Point, c: Point, scale: Fraction) -> Point:
    """scale * (c-a) rotated a quarter turn: same length in l1, l2, and linf."""
    v = p_sub(c, a)
    return scale_vector(space, Point(-v.y, v.x), scale)


def _sample_gamma(space: Space, rng: random.Random, trunc: TruncationParams) -> tuple[Point, ...]:
    """Triples for metric-betweenness checks.

    The truncated tower at depth K cannot distinguish path defects in
    (0, 2^(1-K) * d(a,b)] from zero, so samples are kept out of that band:
    positives have defect exactly zero, negatives have defect provably
    above the band (outside-collinear, quarter-turn offsets, or random
    triples rejection-filtered with the exact band predicate).
    """
    band_coeff = Fraction(2, 2**trunc.K)
    roll = rng.random()
    if roll < 0.30:
        return collinear_triple(space, rng)
    if roll < 0.45:
        return box_path_triple(space, rng)
    if roll < 0.55:  # collinear, strictly outside the segment
        a, _, c = collinear_triple(space, rng)
        delta = Fraction(randint(rng, 1, 8), 16)
        t = 1 + delta if rng.random() < 0.5 else -delta
        return a, affine_combination(a, c, t), c
    if roll < 0.65:  # gross perpendicular deviation: defect at least d(a,c)
        a, b, c = collinear_triple(space, rng)
        return a, p_add(b, _perp_offset(space, a, c, Fraction(2))), c
    if roll < 0.75:
        return _degenerate_triple(space, rng, rand_point(space, rng), rand_point(space, rng))
    for _ in range(64):
        a, b, c = (rand_point(space, rng) for _ in range(3))
        if space.points_eq(a, b) or space.points_eq(b, c):
            return a, b, c
        if space.path_sum_eq(a, b, c) or not space.path_defect_at_most(a, b, c, band_coeff):
            return a, b, c
    return collinear_triple(space, rng)


def _staircase_b_triple(space: Space, rng: random.Random, depth: int) -> tuple[Point, ...]:
    """Box-norm triples with zero path defect but off the segment, placed so
    the subdivision tower rejects them by depth ``depth``."""
    a = rand_point(space, rng)
    total = Fraction(randint(rng, 2, 8))
    if space.norm.kind == "linf":
        # split sits on the dyadic grid: the adjacent chain pair forces a
        # zero-width slot that any nonzero rise escapes
        level = randint(rng, 1, depth)
        j = randint(rng, 1, 2**level - 1)
        split = total * Fraction(j, 2**level)
        rise = min(split, total - split) * rand_unit_fraction(rng)
        b = p_add(a, Point(split, rise))
        c = p_add(a, Point(total, Fraction(0)))
    else:
        # l1 rectangle point whose two coordinates straddle the midpoint cell
        u = rand_unit_fraction(rng) / 2
        w = Fraction(1, 2) + rand_unit_fraction(rng) / 2
        dx, dy = Fraction(randint(rng, 1, 6)), Fraction(randint(rng, 1, 6))
        b = p_add(a, Point(dx * u, dy * w))
        c = p_add(a, Point(dx, dy))
    return a, b, c


def _sample_b(space: Space, rng: random.Random, trunc: TruncationParams) -> tuple[Point, ...]:
    """Triples for affine-betweenness checks, avoiding the subdivision
    tower's blind zone (off-segment points it cannot reject by depth
    ``trunc.b_depth``)."""
    roll = rng.random()
    a = rand_point(space, rng)
    c = rand_point(space, rng)
    if roll < 0.30:  # on-segment, dyadic grid included
        num = randint(rng, 0, 8)
        return a, affine_combination(a, c, Fraction(num, 8)), c
    if roll < 0.45:
        return a, affine_combination(a, c, rand_unit_fraction(rng)), c
    if roll < 0.58:  # collinear but outside
        t = Fraction(randint(rng, 2, 5)) if rng.random() < 0.5 else -rand_unit_fraction(rng)
        return a, affine_combination(a, c, t), c
    if roll < 0.72 and space.norm.kind in ("l1", "linf"):
        return _staircase_b_triple(space, rng, trunc.b_depth)
    if roll < 0.86:  # gross off-line deviation: rejected at the first level
        slide = affine_combination(a, c, rand_unit_fraction(rng))
        return a, p_add(slide, _perp_offset(space, a, c, Fraction(2))), c
    return _degenerate_triple(space, rng, a, c)


def _sample_delta(space: Space, rng: random.Random, trunc: TruncationParams, n: int) -> tuple[Point, ...]:
    z0 = rand_point(space, rng)
    v = rand_nonzero_vector(space, rng)
    x = p_add(z0, v)
    roll = rng.random()
    if roll < 0.45:
        q = Fraction(n) if rng.random() < 0.25 else Fraction(n) * rand_unit_fraction(rng)
        zn = p_add(z0, scale_vector(space, equal_length_mate(space, rng, v), q))
        return z0, x, zn
    if roll < 0.65:
        q = Fraction(n) + rand_unit_fraction(rng) + Fraction(1, 3)
        zn = p_add(z0, scale_vector(space, equal_length_mate(space, rng, v), q))
        return z0, x, zn
    if roll < 0.75:
        return z0, x, z0
    if roll < 0.85:
        return z0, z0, rand_point(space, rng)
    return z0, x, rand_point(space, rng)


def _sample_neq(space: Space, rng: random.Random, trunc: TruncationParams) -> tuple[Point, ...]:
    x = rand_point(space, rng)
    if rng.random() < 0.4:
        return x, x
    return x, rand_point(space, rng)


def _sample_le(space: Space, rng: random.Random, trunc: TruncationParams) -> tuple[Point, ...]:
    c = rand_point(space, rng)
    d = rand_point(space, rng)
    a = rand_point(space, rng)
    v = p_sub(d, c)
    roll = rng.random()
    if roll < 0.40:
        q = Fraction(1) if rng.random() < 0.2 else rand_unit_fraction(rng)
        b = p_add(a, scale_vector(space, equal_length_mate(space, rng, v), q))
        return a, b, c, d
    if roll < 0.60:
        q = Fraction(1) + rand_unit_fraction(rng) + Fraction(1, 5)
        b = p_add(a, scale_vector(space, equal_length_mate(space, rng, v), q))
        return a, b, c, d
    if roll < 0.75:
        return _degenerate_quadruple(space, rng, a, c, d)
    return a, rand_point(space, rng), c, d


# relation name -> sampler called as ``sampler(space, rng, trunc, *indices)``;
# a relation is layer-verifiable exactly when it has a sampler here
_SAMPLERS = {
    "EQUIV2": _sample_equiv2,
    "PHI": _sample_phi,
    "ALPHA": lambda space, rng, trunc, n: _sample_scaled_point(space, rng, Fraction(n)),
    "BETA": lambda space, rng, trunc, k: _sample_scaled_point(space, rng, Fraction(1, 2**k)),
    "PSI": _sample_psi,
    "GAMMA": _sample_gamma,
    "B": _sample_b,
    "DELTA": _sample_delta,
    "NEQ": _sample_neq,
    "LE": _sample_le,
    "COLLINEAR": _sample_b,
}
