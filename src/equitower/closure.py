"""Witness and refuter closure: finite universes that make bounded
evaluation faithful.

Quantifiers in the defining formulas range over the whole plane, so a
finite universe can only be faithful by construction: every existential
witness a true instance needs is added analytically, and every universal
subformula gets the analytic counterexample points that refute false
instances.  Constructions re-validate their defining distance constraints
before entering the universe.

On the exact l2 backend, constructions that need a sphere-sphere
intersection (EQUIV2's z-witnesses, PSI's e-point, DELTA's detour apexes,
LE's s-witnesses) are refused; those layers verify on the float backend
instead (see :func:`equitower.formulas.verify.verification_space`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geometry import (
    GeometryError,
    Point,
    SolverError,
    Space,
    affine_combination,
    midpoint,
    p_add,
    p_sub,
    sphere_intersection_point,
    sphere_meets,
)
from .oracles import RelationId, oracle_psi
from .sampling import scale_vector
from .universe import (
    DEFAULT_SIZE_CAP,
    TAG_CHAIN,
    TAG_MIDPOINT,
    TAG_REFUTER,
    TAG_SPHERE,
    Universe,
)
from .formulas.schemas import TruncationParams


class IncompleteClosureError(GeometryError):
    """The requested chain cannot be completed within the length cap."""


def close_midpoints(space: Space, points, depth: int, size_cap: int = DEFAULT_SIZE_CAP) -> Universe:
    """All iterated pairwise affine midpoints of ``points`` to ``depth``."""
    if depth < 1:
        raise GeometryError("midpoint closure needs depth >= 1")
    uni = Universe(space, points, size_cap=size_cap)
    for _ in range(depth):
        fresh = []
        pts = uni.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                fresh.append(midpoint(pts[i], pts[j]))
        before = len(uni)
        uni = uni.add(fresh, TAG_MIDPOINT)
        if len(uni) == before:
            break
    return uni


def dyadic_chain(a: Point, c: Point, level: int) -> list[Point]:
    """The points a + i*2^(-level)*(c-a) for i = 0..2^level."""
    step = Fraction(1, 2**level)
    return [affine_combination(a, c, i * step) for i in range(2**level + 1)]


def close_for_alpha_beta(
    space: Space, a: Point, b: Point, n: int, k: int, size_cap: int = DEFAULT_SIZE_CAP
) -> Universe:
    """Ray multiples a + i(b-a) for i <= n and dyadic points a + 2^(-j)(b-a) for j <= k."""
    if space.points_eq(a, b):
        raise GeometryError("alpha/beta closure needs a != b")
    pts = [affine_combination(a, b, i) for i in range(0, n + 1)]
    pts.extend(affine_combination(a, b, Fraction(1, 2**j)) for j in range(0, k + 1))
    return Universe(space, [a, b], size_cap=size_cap).add(pts, TAG_CHAIN)


def close_for_psi(
    space: Space,
    a: Point,
    b: Point,
    c: Point,
    d: Point,
    n: int,
    k: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Universe:
    """Scaffolding for PSI(n,k): the beta point v, the alpha chain on (a,v),
    and, when the relation holds, a constructed witness e."""
    uni = Universe(space, [a, b, c, d], size_cap=size_cap)
    if space.points_eq(a, b):
        return uni
    scale = Fraction(1, 2**k)
    # beta chain on (a,b) and alpha chain on (a, v) with v = a + 2^(-k)(b-a)
    pts = [affine_combination(a, b, Fraction(1, 2**j)) for j in range(0, k + 1)]
    pts.extend(affine_combination(a, b, i * scale) for i in range(0, n + 1))
    uni = uni.add(pts, TAG_CHAIN)
    if not oracle_psi(space, n, k, a, b, c, d):
        return uni
    length = space.length_value(a, b)
    e = sphere_intersection_point(space, c, n * scale * length, d, scale * length)
    return uni.add([e], TAG_SPHERE)


def close_for_delta(
    space: Space, x: Point, y: Point, z: Point, n_max: int, size_cap: int = DEFAULT_SIZE_CAP
) -> Universe:
    """Chain points from x toward z with every step of length d(x,y).

    Full steps land on segment xz; a remainder is closed by a two-step
    detour through a sphere-intersection apex.  A parity apex over the
    first step makes every achievable chain length realizable, so bounded
    evaluation of DELTA(n) agrees with d(x,z) <= n*d(x,y) for all n >= 2.
    """
    if space.points_eq(x, y):
        raise GeometryError("delta closure needs x != y")
    uni = Universe(space, [x, y, z], size_cap=size_cap)
    step = space.length_value(x, y)
    # minimal step count, judged with the same comparisons the oracle uses
    min_steps = next(
        (n for n in range(n_max + 1) if space.le_dist_scaled(x, z, n, x, y)), None
    )
    if min_steps is None:
        raise IncompleteClosureError(
            f"reaching z needs more than {n_max} steps of length d(x,y)"
        )
    ratio = space.length_ratio(x, z, x, y)
    full = math.floor(ratio)
    walk = [affine_combination(x, z, i / ratio) for i in range(1, full + 1)]
    for prev, nxt in zip([x] + walk, walk):
        if not space.eq_dist(prev, nxt, x, y):
            raise SolverError("full chain step fails its length constraint")
    uni = uni.add(walk, TAG_CHAIN)
    apexes = []
    anchors = [x] + walk
    for f in range(max(0, min_steps - 2), full + 1):
        anchor = anchors[f]
        # two steps of length `step` from anchor to z exist iff the gap fits
        if space.le_dist_scaled(anchor, z, 2, x, y):
            apexes.append(sphere_intersection_point(space, anchor, step, z, step))
    first = walk[0] if walk else (apexes[0] if apexes else None)
    if first is not None:
        apexes.append(sphere_intersection_point(space, x, step, first, step))
    return uni.add(apexes, TAG_SPHERE)


def _refuter_points(
    space: Space, rel: RelationId, points: tuple[Point, ...], chain_max: int = 8
) -> list[Point]:
    """Analytic counterexample points for the universal subformulas of
    EQUIV2 (x = mid(a,b), y = mid(a,x)), LE (m = mid(c,d)), and NEQ (a far
    point unreachable in chain_max steps)."""
    name = rel.name
    if name == "EQUIV2":
        a, b = points[0], points[1]
        x = midpoint(a, b)
        return [x, midpoint(a, x)]
    if name == "LE":
        c, d = points[2], points[3]
        return [midpoint(c, d)]
    if name == "NEQ":
        x, y = points
        if space.points_eq(x, y):
            return [Point(x.x + 1, x.y)]
        return [affine_combination(x, y, chain_max + 1)]
    raise GeometryError(f"no refuter recipe for {rel.label()}")


def add_refuters(
    space: Space, rel: RelationId, points: tuple[Point, ...], chain_max: int = 8,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Universe:
    """``points`` plus their analytic counterexample points."""
    refuters = _refuter_points(space, rel, points, chain_max)
    return Universe(space, points, size_cap=size_cap).add(refuters, TAG_REFUTER)


def _pick_witness(candidates: list[Point], breeding_test) -> Point:
    """The first candidate that cannot create new quantifier obligations;
    falls back to the first candidate (the fixpoint loop handles the rest)."""
    return next((z for z in candidates if not breeding_test(z)), candidates[0])


def _equiv2_witness_round(space: Space, uni: Universe, a, b, c, d) -> list[Point]:
    """z-witnesses for every universe pair satisfying the antecedent
    (x equidistant from a,b; y equidistant from a and x).

    If some antecedent pair has no witness anywhere in the plane, the
    universal part is irrecoverably false (the pair is a refuter already in
    the universe), so no witnesses are needed at all.
    """
    fresh: list[Point] = []
    cd_degenerate = space.points_eq(c, d)
    for x in uni.points:
        if not space.eq_dist(x, a, x, b):
            continue
        for y in uni.points:
            if not space.eq_dist(y, a, y, x):
                continue
            if any(
                space.eq_dist(z, c, x, y) and space.eq_dist(z, d, x, y) for z in uni.points
            ):
                continue
            if space.points_eq(x, y) or not space.le_dist_scaled(c, d, 2, x, y):
                return []  # no z exists anywhere in the plane: sound refutation
            if cd_degenerate:
                fresh.append(p_add(c, p_sub(y, x)))
            elif space.eq_dist_scaled(x, y, Fraction(1, 2), c, d):
                fresh.append(midpoint(c, d))
            else:
                radius = space.length_value(x, y)
                candidates = sphere_meets(space, c, radius, d, radius)
                antecedent_xs = [p for p in uni.points if space.eq_dist(p, a, p, b)]

                def breeds(z: Point) -> bool:
                    if space.eq_dist(z, a, z, b):
                        return True  # would become an antecedent x itself
                    return any(space.eq_dist(z, a, z, p) for p in antecedent_xs)

                fresh.append(_pick_witness(candidates, breeds))
    return fresh


def _le_witness_round(space: Space, uni: Universe, a, b, c, d) -> list[Point]:
    """s-witnesses for every universe point m equidistant from c and d.

    A point m whose consequent is unsatisfiable anywhere in the plane
    refutes the universal part outright, so witness construction stops.
    """
    fresh: list[Point] = []
    for m in uni.points:
        if not space.eq_dist(c, m, d, m):
            continue
        if any(
            space.eq_dist(a, b, c, s) and space.eq_dist(c, m, s, m) for s in uni.points
        ):
            continue
        if not space.le_dist_scaled(a, b, 2, c, m):
            return []  # no s exists anywhere in the plane: sound refutation
        if space.points_eq(a, b):
            fresh.append(c)
        elif space.eq_dist_scaled(a, b, 2, c, m):
            fresh.append(p_add(c, scale_vector(space, p_sub(m, c), 2)))
        else:
            candidates = sphere_meets(
                space, c, space.length_value(a, b), m, space.length_value(c, m)
            )
            fresh.append(
                _pick_witness(candidates, lambda z: space.eq_dist(z, c, z, d))
            )
    return fresh


def _fixpoint(space: Space, uni: Universe, round_fn, tag: str, rounds: int = 12) -> Universe:
    for _ in range(rounds):
        fresh = round_fn(uni)
        before = len(uni)
        uni = uni.add(fresh, tag)
        if len(uni) == before:
            return uni
    raise SolverError("witness closure did not stabilize")


def closure_for_relation(
    space: Space,
    rel: RelationId,
    points: tuple[Point, ...],
    trunc: TruncationParams,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Universe:
    """The witness/refuter-closed universe for checking ``rel`` on ``points``."""
    name = rel.name
    if name == "EQUIV2":
        # a minimal quantifier range: free variables bind through the
        # valuation, so universe points beyond refuters and witnesses only
        # breed accidental antecedent pairs (fatal in box norms, where whole
        # wedges are equidistant from a segment's endpoints by dominance)
        a, b, c, d = points
        uni = Universe(space, _refuter_points(space, rel, points), TAG_REFUTER, size_cap=size_cap)
        if space.points_eq(c, d):
            uni = uni.add([c], TAG_SPHERE)
        else:
            uni = uni.add([midpoint(c, d)], TAG_MIDPOINT)
        return _fixpoint(space, uni, lambda u: _equiv2_witness_round(space, u, a, b, c, d), TAG_SPHERE)
    if name == "LE":
        a, b, c, d = points
        uni = Universe(space, _refuter_points(space, rel, points), TAG_REFUTER, size_cap=size_cap)
        return _fixpoint(space, uni, lambda u: _le_witness_round(space, u, a, b, c, d), TAG_SPHERE)
    if name == "NEQ":
        uni = Universe(space, points, size_cap=size_cap)
        if space.points_eq(*points):
            uni = uni.add(_refuter_points(space, rel, points, trunc.chain_max), TAG_REFUTER)
        return uni
    if name in ("ALPHA", "BETA"):
        a, b, _ = points
        uni = Universe(space, points, size_cap=size_cap)
        if space.points_eq(a, b):
            return uni
        n, k = (rel.indices[0], 0) if name == "ALPHA" else (0, rel.indices[0])
        return uni.add(close_for_alpha_beta(space, a, b, n, k).points, TAG_CHAIN)
    if name == "PSI":
        a, b, c, d = points
        n, k = rel.indices
        return close_for_psi(space, a, b, c, d, n, k, size_cap=size_cap)
    if name in ("GAMMA", "COLLINEAR"):
        return Universe(space, points, size_cap=size_cap)
    if name == "B":
        a, b, c = points
        uni = Universe(space, points, size_cap=size_cap)
        if space.points_eq(a, c):
            return uni
        chain: list[Point] = []
        for level in range(1, trunc.b_depth + 1):
            chain.extend(dyadic_chain(a, c, level))
        return uni.add(chain, TAG_MIDPOINT)
    if name == "DELTA":
        z0, x, zn = points
        uni = Universe(space, points, size_cap=size_cap)
        if rel.indices[0] == 1 or space.points_eq(z0, x):
            return uni  # DELTA(1) is one atom, d(z0,zn) = d(z0,x): it quantifies over nothing
        try:
            chain_uni = close_for_delta(space, z0, x, zn, rel.indices[0], size_cap=size_cap)
        except IncompleteClosureError:
            return uni  # unreachable target: the formula is false on inputs alone
        return uni.add(chain_uni.points, TAG_CHAIN)
    if name in ("M", "PHI"):
        uni = Universe(space, points, size_cap=size_cap)
        end_a, end_b = (points[0], points[2]) if name == "M" else (points[0], points[1])
        if space.points_eq(end_a, end_b):
            return uni
        extras = [midpoint(end_a, end_b)]
        if space.norm.kind in ("l1", "linf") or space.backend == "float":
            half = Fraction(1, 2) * space.length_value(end_a, end_b)
            extras.append(sphere_intersection_point(space, end_a, half, end_b, half))
        return uni.add(extras, TAG_MIDPOINT)
    raise GeometryError(f"no closure recipe for {rel.label()}")
