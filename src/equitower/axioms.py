"""Congruence-axiom checking over coordinate models.

Universal axioms are checked on seeded random instantiations; they cannot
be proved this way, only falsified, and violations are recorded with full
inputs for replay.  Existential axioms are checked constructively: the
promised point is built analytically and its defining constraints are
re-verified through the distance predicates.

Exact-backend sampling notes: constructions that scale a ray by a ratio of
two lengths need that ratio to be rational.  On l1/linf all lengths are
rational; on exact l2 the samplers draw from rational-distance triangles
(two rational right triangles glued along a common height), so segment
transport and the weak triangle inequality check with zero tolerance in
every supported norm.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

from .formulas.schemas import TruncationParams
from .formulas.verify import verification_space, verify_layer
from .geometry import (
    NoIntersectionError,
    Point,
    Space,
    affine_combination,
    midpoint,
    p_add,
    p_sub,
    point_to_record,
    sphere_intersection_point,
)
from .oracles import (
    LE,
    oracle_B,
    oracle_collinear,
    oracle_le,
    oracle_parallelogram,
)
from .sampling import (
    equal_length_mate,
    rand_fraction,
    rand_nonzero_vector,
    rand_point,
    rand_positive_fraction,
    rand_unit_fraction,
    randint,
    rational_distance_triangle,
    scale_vector,
)

@dataclass
class AxiomReport:
    axiom: str
    norm: str
    backend: str
    samples: int = 0
    violations: list = field(default_factory=list)
    witnesses: int = 0
    skipped: int = 0
    not_applicable: int = 0
    incomplete: int = 0
    extra: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, space: Space, kind: str, points: dict) -> None:
        self.violations.append(
            {"clause": kind, "points": {k: point_to_record(space, p) for k, p in points.items()}}
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _run(axiom: str, space: Space, count: int, seed: int, draw: Callable) -> AxiomReport:
    """The loop every check shares: ``count`` instances on one seeded stream,
    each drawn and classified into the report by ``draw(rng, rep)``."""
    rng = random.Random(seed)
    rep = AxiomReport(axiom=axiom, norm=space.norm.label(), backend=space.backend, seed=seed)
    for _ in range(count):
        rep.samples += 1
        draw(rng, rep)
    return rep


def check_axiom_a(space: Space, samples: int, seed: int) -> AxiomReport:
    """Equidistance is a nondegenerate equivalence between segments."""

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        a, b, c = (rand_point(space, rng) for _ in range(3))
        if not space.eq_dist(a, b, b, a):
            rep.flag(space, "symmetry ab=ba", {"a": a, "b": b})
        if not space.eq_dist(a, a, b, b):
            rep.flag(space, "null segments aa=bb", {"a": a, "b": b})
        # transitivity on constructed congruent segments
        v = p_sub(b, a)
        c2 = p_add(c, equal_length_mate(space, rng, v))
        e = rand_point(space, rng)
        e2 = p_add(e, equal_length_mate(space, rng, v))
        if space.eq_dist(a, b, c, c2) and space.eq_dist(a, b, e, e2):
            if not space.eq_dist(c, c2, e, e2):
                rep.flag(space, "transitivity", {"a": a, "b": b, "c": c, "c2": c2, "e": e, "e2": e2})
        # nondegeneracy: ab = cc forces a = b (checked on a=b and a!=b draws)
        probe_b = a if rng.random() < 0.5 else b
        if space.eq_dist(a, probe_b, c, c) and not space.points_eq(a, probe_b):
            rep.flag(space, "nondegeneracy ab=cc -> a=b", {"a": a, "b": probe_b, "c": c})

    return _run("a", space, samples, seed, draw)


def check_axiom_b(space: Space, samples: int, seed: int) -> AxiomReport:
    """Segment transport: a point d on the ray opposite c from a with ab = ad."""

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        # a, b, c with |ab| / |ac| rational on this backend when a != c
        if space.kernel.constructs:
            a, b, c = (rand_point(space, rng) for _ in range(3))
        else:
            a, b, c = rational_distance_triangle(rng)[:3]
        if space.points_eq(a, c):
            rep.skipped += 1
            return
        t = space.length_ratio(a, b, a, c)
        away = p_sub(a, c)
        d = p_add(a, scale_vector(space, away, t))
        ok = oracle_B(space, c, a, d) and space.eq_dist(a, b, a, d)
        # second construction: scale a doubled ray vector by half the ratio
        d2 = p_add(a, scale_vector(space, away, 2))
        alt = affine_combination(a, d2, t / 2)
        if not (ok and space.points_eq(d, alt)):
            rep.flag(space, "transport/uniqueness", {"a": a, "b": b, "c": c, "d": d})
        else:
            rep.witnesses += 1

    return _run("b", space, samples, seed, draw)


def check_axiom_c_d_e(space: Space, samples: int, seed: int) -> AxiomReport:
    """(c) affine midpoints are equidistant; (d) parallelogram sides are
    congruent; (e) parallels to the base of an isosceles triangle cut off
    an isosceles triangle."""

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        a = rand_point(space, rng)
        b = rand_point(space, rng)
        m = midpoint(a, b)
        if not space.eq_dist(a, m, m, b):
            rep.flag(space, "c midpoint", {"a": a, "b": b, "m": m})
        w = rand_nonzero_vector(space, rng)
        c = p_add(b, w)
        d = p_add(a, w)
        if oracle_parallelogram(space, a, b, c, d):
            if not (space.eq_dist(a, b, d, c) and space.eq_dist(b, c, a, d)):
                rep.flag(space, "d parallelogram", {"a": a, "b": b, "c": c, "d": d})
        else:
            rep.skipped += 1
        o = rand_point(space, rng)
        v = rand_nonzero_vector(space, rng)
        for _ in range(6):  # re-draw collinear mates; the axiom guards them out
            mate = equal_length_mate(space, rng, v)
            a1 = p_add(o, v)
            a2 = p_add(o, mate)
            t = rand_fraction(rng, span=5, max_den=4)
            if t != 0 and not oracle_collinear(space, o, a1, a2):
                break
        else:
            rep.skipped += 1
            return
        b1 = p_add(o, scale_vector(space, v, t))
        b2 = p_add(o, scale_vector(space, mate, t))
        if not space.eq_dist(o, a1, o, a2):
            rep.flag(space, "e isosceles precondition", {"o": o, "a": a1, "a2": a2})
        elif not space.eq_dist(o, b1, o, b2):
            rep.flag(space, "e isosceles parallel", {"o": o, "a": a1, "a2": a2, "b": b1, "b2": b2})

    return _run("cde", space, samples, seed, draw)


def _triangle_sample(space: Space, rng: random.Random):
    """b, a, c plus the rational lengths |ba|, |ac|, |bc| where available."""
    if not space.kernel.constructs:  # lengths are irrational in general: draw rational ones
        if rng.random() < 0.3:  # collinear family along a rational-length direction
            b = rand_point(space, rng)
            lam = rand_positive_fraction(rng, span=8)
            unit = equal_length_mate(space, rng, Point(Fraction(1), Fraction(0)))
            c = p_add(b, scale_vector(space, unit, lam))
            s = rand_fraction(rng, span=4, max_den=4)
            a = affine_combination(b, c, s)
            return b, a, c, abs(s) * lam, abs(1 - s) * lam, lam
        b, a, c, r, u, lam = rational_distance_triangle(rng)
        if lam == 0:
            return None
        return b, a, c, r, u, lam
    b = rand_point(space, rng)
    c = rand_point(space, rng)
    a = rand_point(space, rng)
    if space.points_eq(b, c):
        return None
    return b, a, c, space.length_value(b, a), space.length_value(a, c), space.length_value(b, c)


def check_axiom_f(space: Space, samples: int, seed: int) -> AxiomReport:
    """Weak triangle inequality, instantiated with a' and c' on the ray b->c."""

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        sample = _triangle_sample(space, rng)
        if sample is None:
            rep.skipped += 1
            return
        b, a, c, len_ba, len_ac, len_bc = sample
        t = len_ba / len_bc
        u = len_ac / len_bc
        a_prime = affine_combination(b, c, t)
        c_prime = affine_combination(b, c, t + u)
        guards = (
            (oracle_B(space, b, a_prime, c) or oracle_B(space, b, c, a_prime))
            and space.eq_dist(b, a, b, a_prime)
            and oracle_B(space, b, a_prime, c_prime)
            and space.eq_dist(a_prime, c_prime, a, c)
        )
        if not guards:
            rep.skipped += 1
            return
        if not oracle_B(space, b, c, c_prime):
            rep.flag(space, "f conclusion B(b,c,c')", {"a": a, "b": b, "c": c, "c2": c_prime})

    return _run("f", space, samples, seed, draw)


def check_axiom_g(space: Space, samples: int, seed: int) -> AxiomReport:
    """Triangles exist for any three lengths within the weak triangle bound.

    A plane whose kernel does not construct (exact l2, with its irrational
    apexes) runs on the float twin at the default tolerance; the report's
    backend field records that.
    """
    if not space.kernel.constructs:
        space = Space(space.norm, "float", 1e-9)

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        p = rand_positive_fraction(rng, span=8)
        q = rand_positive_fraction(rng, span=8)
        lo, hi = abs(p - q), p + q
        pick = rng.random()
        if pick < 0.1:
            r = lo
        elif pick < 0.2:
            r = hi
        elif pick < 0.3:  # out of range: not applicable, no triangle promised
            r = hi + rand_positive_fraction(rng, span=3)
        else:
            r = lo + (hi - lo) * rand_unit_fraction(rng)
        base = rand_point(space, rng)
        direction = equal_length_mate(space, rng, Point(Fraction(1), Fraction(0)))
        apex_base = p_add(base, scale_vector(space, direction, r))
        try:
            apex = sphere_intersection_point(space, base, p, apex_base, q)
        except NoIntersectionError:
            if lo <= r <= hi:
                rep.flag(space, "g missing triangle", {"base": base, "other": apex_base})
            else:
                rep.not_applicable += 1
            return
        sides_ok = (
            space.length_is(base, apex_base, r)
            and space.length_is(base, apex, p)
            and space.length_is(apex_base, apex, q)
        )
        if sides_ok:
            rep.witnesses += 1
        else:
            rep.flag(space, "g side lengths", {"base": base, "other": apex_base, "apex": apex})

    return _run("g", space, samples, seed, draw)


def check_axiom_h(space: Space, samples: int, seed: int, schnabel_samples: int = 0) -> AxiomReport:
    """Totality of segment-length order, plus the defining order formula
    evaluated over refuter-closed universes against the order oracle."""

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        a, b, c, d = (rand_point(space, rng) for _ in range(4))
        if not (oracle_le(space, a, b, c, d) or oracle_le(space, c, d, a, b)):
            rep.flag(space, "h totality", {"a": a, "b": b, "c": c, "d": d})

    rep = _run("h", space, samples, seed, draw)
    if schnabel_samples:
        formula_space = verification_space(LE, space.norm, tolerance=max(space.tolerance, 1e-9))
        layer = verify_layer(formula_space, LE, TruncationParams(), schnabel_samples, seed + 1)
        rep.extra["order_formula"] = {
            "backend": formula_space.backend,
            "samples": layer.samples,
            "agreements": layer.agreements,
        }
        if not layer.passed:
            rep.violations.extend(layer.counterexamples)
    return rep


def check_axiom_i(space: Space, samples: int, seed: int, chain_cap: int = 12) -> AxiomReport:
    """Repeatedly laying off a segment along its ray passes every target on
    the ray, with parallelogram rungs transporting the step."""
    if chain_cap < 2:
        raise ValueError(f"the chain cap must be at least 2, got {chain_cap}")
    found_ns: list[int] = []

    def draw(rng: random.Random, rep: AxiomReport) -> None:
        a = rand_point(space, rng)
        step = rand_nonzero_vector(space, rng)
        x1 = rand_point(space, rng)
        t_num = randint(rng, 0, 4 * (chain_cap - 2))
        t = Fraction(t_num, 4)
        target = p_add(x1, scale_vector(space, step, t))
        xs = [p_add(x1, scale_vector(space, step, i)) for i in range(chain_cap + 1)]
        rung = Point(-step.y, step.x)
        ys = [p_add(x, rung) for x in xs]
        if not (oracle_B(space, x1, xs[1], target) or oracle_B(space, x1, target, xs[1])):
            rep.flag(space, "i ray guard", {"x1": x1, "x2": xs[1], "d": target})
            return
        found = None
        for n in range(2, chain_cap + 1):
            if oracle_B(space, x1, target, xs[n - 1]):
                found = n
                break
        if found is None:
            rep.incomplete += 1
            return
        if found > math.ceil(t) + 2:
            rep.flag(space, "i chain length bound", {"x1": x1, "d": target})
            return
        rungs_ok = all(
            oracle_parallelogram(space, xs[i], xs[i + 1], ys[i + 1], ys[i])
            and (i + 2 >= found or oracle_parallelogram(space, ys[i], ys[i + 1], xs[i + 2], xs[i + 1]))
            for i in range(found - 1)
        )
        if not rungs_ok:
            rep.flag(space, "i parallelogram rungs", {"x1": x1})
            return
        rep.witnesses += 1
        found_ns.append(found)

    rep = _run("i", space, samples, seed, draw)
    if found_ns:
        rep.extra["min_chain"] = min(found_ns)
        rep.extra["max_chain"] = max(found_ns)
    return rep


CHECKERS: dict[str, Callable] = {
    "a": check_axiom_a,
    "b": check_axiom_b,
    "cde": check_axiom_c_d_e,
    "f": check_axiom_f,
    "g": check_axiom_g,
    "h": check_axiom_h,
    "i": check_axiom_i,
}


def run_axiom(
    name: str, space: Space, samples: int, constructions: int, seed: int, chain_cap: int = 12
) -> AxiomReport:
    """One axiom check: the existential axioms b, g and i draw
    ``constructions`` instances, the universal ones ``samples``; h also
    checks its order formula on up to 200 samples."""
    count = constructions if name in ("b", "g", "i") else samples
    options = {"h": {"schnabel_samples": min(200, samples)}, "i": {"chain_cap": chain_cap}}
    return CHECKERS[name](space, count, seed, **options.get(name, {}))


def run_axiom_suite(
    space: Space, samples: int, seed: int, constructions: int = 1000, chain_cap: int = 12
) -> list[AxiomReport]:
    """All axiom checks, in ``CHECKERS`` order, the k-th seeded ``seed + k``."""
    return [
        run_axiom(name, space, samples, constructions, seed + k, chain_cap)
        for k, name in enumerate(CHECKERS)
    ]
