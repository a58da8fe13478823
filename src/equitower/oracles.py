"""Analytic oracles for every relation in the definition tower.

Each relation is defined once, in :data:`RELATIONS`: its index count and
index check, its formal point parameters (their number is its arity) and
its oracle.  The layers above keep only their own part, keyed by the same
name: the formula expansion in ``formulas.schemas._EXPANSIONS``, the biased
sampler in ``formulas.verify._SAMPLERS`` and the witness/refuter recipe in
:func:`equitower.closure.closure_for_relation`.  A new relation touches
those four places.

Each oracle states the relation's intended meaning directly in coordinates
and distances; the formula kernel is verified against these.  Key reading
notes baked in here:

* ``M(a,b,c)`` is the affine midpoint condition a + c = 2b with a != c,
  independent of the norm.
* ``ALPHA(n)`` / ``BETA(k)`` pin a unique point on the ray/segment from a
  through b: on a straight line the distance conditions force exactly
  x = a + n*(b-a) and y = a + 2^(-k)*(b-a) in every norm.
* ``PSI(n, k)`` replaces its existential point by the closed-form annulus
  condition |R - r| <= d(c,d) <= R + r, which is equivalent to existence in
  a two-dimensional normed plane (cross-checked constructively by
  :func:`equitower.geometry.sphere_intersection_point`).
* ``GAMMA`` is metric betweenness with pairwise-distinct arguments; ``B``
  is affine betweenness with endpoint equality allowed.  These coincide in
  strictly convex norms (l2) and genuinely differ in l1/linf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .geometry import Point, Space, affine_combination, p_sub


class OracleError(Exception):
    """Bad relation id, index, or arity."""


@dataclass(frozen=True)
class RelationId:
    """A named relation, possibly carrying integer indices (e.g. PSI(3,2))."""

    name: str
    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        spec = RELATIONS.get(self.name)
        if spec is None:
            raise OracleError(f"unknown relation {self.name!r}")
        if len(self.indices) != spec.n_indices:
            raise OracleError(
                f"{self.name} takes {spec.n_indices} index argument(s), got {len(self.indices)}"
            )
        if spec.index_ok is not None and not spec.index_ok(self.indices):
            raise OracleError(f"invalid indices {self.indices} for {self.name}")

    def arity(self) -> int:
        return len(RELATIONS[self.name].params)

    def label(self) -> str:
        if not self.indices:
            return self.name
        return f"{self.name}({','.join(str(i) for i in self.indices)})"

    @staticmethod
    def parse(text: str) -> "RelationId":
        """Parse 'GAMMA' or 'PSI:3:2' style labels."""
        parts = text.split(":")
        name = parts[0].upper()
        try:
            indices = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise OracleError(f"bad relation indices in {text!r}") from exc
        return RelationId(name, indices)


@dataclass(frozen=True)
class RelationSpec:
    """A relation's formal point parameters (their number is its arity, and
    its expansion's free variables are named after them), its oracle, called
    as ``oracle(space, *indices, *points)``, and its index count and check."""

    params: tuple[str, ...]
    oracle: Callable[..., bool]
    n_indices: int = 0
    index_ok: Callable[[tuple[int, ...]], bool] | None = None


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def oracle_equiv2(space: Space, a: Point, b: Point, c: Point, d: Point) -> bool:
    """d(a,b) = 2 * d(c,d)."""
    return space.eq_dist_scaled(a, b, 2, c, d)


def oracle_midpoint(space: Space, a: Point, b: Point, c: Point) -> bool:
    """a + c = 2b coordinatewise, with a != c (affine; norm plays no role)."""
    return not space.points_eq(a, c) and space.kernel.is_midpoint(a, b, c)


def oracle_phi(space: Space, n: int, a: Point, b: Point, x: Point) -> bool:
    """Metric-midpoint test, stage 0 only: d(x,a) = d(x,b) and d(a,b) = 2 d(x,a).

    Stages n >= 1 tighten toward the affine midpoint but have no stated
    closed form at finite n; they are exposed for exploration through the
    formula kernel, not as an oracle.
    """
    if n != 0:
        raise OracleError("PHI has an oracle only at stage 0")
    return space.eq_dist(x, a, x, b) and space.eq_dist_scaled(a, b, 2, x, a)


def oracle_alpha(space: Space, n: int, a: Point, b: Point, x: Point) -> bool:
    """x is on ray a->b with d(a,x) = n*d(a,b): exactly x = a + n*(b-a)."""
    if n < 1:
        raise OracleError("ALPHA needs n >= 1")
    return not space.points_eq(a, b) and space.kernel.coords_eq(x, affine_combination(a, b, n))


def oracle_beta(space: Space, k: int, a: Point, b: Point, y: Point) -> bool:
    """y is on segment ab with d(a,y) = 2^(-k) * d(a,b): y = a + 2^(-k)(b-a)."""
    if k < 1:
        raise OracleError("BETA needs k >= 1")
    return not space.points_eq(a, b) and space.kernel.coords_eq(y, affine_combination(a, b, Fraction(1, 2**k)))


def oracle_psi(space: Space, n: int, k: int, a: Point, b: Point, c: Point, d: Point) -> bool:
    """Existence of e with d(c,e) = n*2^(-k)*d(a,b) and d(d,e) = 2^(-k)*d(a,b).

    With R = n*2^(-k)*u and r = 2^(-k)*u (u = d(a,b)), existence in a
    2-dimensional normed plane is exactly |R-r| <= d(c,d) <= R+r, i.e.
    (n-1)*2^(-k)*u <= d(c,d) <= (n+1)*2^(-k)*u.
    """
    if n < 1 or k < 1:
        raise OracleError("PSI needs n >= 1 and k >= 1")
    if space.points_eq(a, b) or space.points_eq(c, d):
        return False
    kernel = space.kernel
    return kernel.le_dist_scaled(c, d, n + 1, 2**k, a, b) and kernel.ge_dist_scaled(c, d, n - 1, 2**k, a, b)


def oracle_gamma(space: Space, a: Point, b: Point, c: Point) -> bool:
    """Three pairwise-distinct points with d(a,b) + d(b,c) = d(a,c)."""
    if space.points_eq(a, b) or space.points_eq(b, c) or space.points_eq(a, c):
        return False
    return space.path_sum_eq(a, b, c)


def oracle_B(space: Space, a: Point, b: Point, c: Point) -> bool:
    """Affine betweenness: b = a + t(c-a) for some t in [0,1], endpoints allowed,
    decided by the space's kernel on b - a and c - a (on floats, within the tolerance)."""
    return space.kernel.between(a, b, c)


def oracle_delta(space: Space, n: int, a: Point, b: Point, c: Point) -> bool:
    """d(a,c) <= n * d(a,b) for n >= 2; for n = 1, d(a,c) = d(a,b).

    DELTA(n) says that a chain of n steps of length d(a,b) leads from a to
    c.  Two steps reach every point within twice the step, but one step
    reaches only the sphere of radius d(a,b).
    """
    if n < 1:
        raise OracleError("DELTA needs n >= 1")
    if n == 1:
        return space.eq_dist(a, c, a, b)
    return space.le_dist_scaled(a, c, n, a, b)


def oracle_distinct(space: Space, a: Point, b: Point) -> bool:
    return not space.points_eq(a, b)


def oracle_le(space: Space, a: Point, b: Point, c: Point, d: Point) -> bool:
    """Segment-length order: d(a,b) <= d(c,d)."""
    return space.le_dist(a, b, c, d)


def oracle_collinear(space: Space, a: Point, b: Point, c: Point) -> bool:
    return space.kernel.collinear(a, b, c)


def oracle_parallelogram(space: Space, a: Point, b: Point, c: Point, d: Point) -> bool:
    """a,b,c,d are the vertices, in order, of a nondegenerate parallelogram."""
    # with b-a = c-d, the four points are collinear iff a,b,c already are
    return space.kernel.coords_eq(p_sub(b, a), p_sub(c, d)) and not oracle_collinear(space, a, b, c)


RELATIONS: dict[str, RelationSpec] = {
    "EQUIV2": RelationSpec(("a", "b", "c", "d"), oracle_equiv2),
    "PHI": RelationSpec(("a", "b", "x"), oracle_phi, 1, lambda ix: ix[0] >= 0),
    "M": RelationSpec(("a", "b", "c"), oracle_midpoint),
    "ALPHA": RelationSpec(("a", "b", "x"), oracle_alpha, 1, lambda ix: ix[0] >= 1),
    "BETA": RelationSpec(("a", "b", "y"), oracle_beta, 1, lambda ix: ix[0] >= 1),
    "PSI": RelationSpec(("a", "b", "c", "d"), oracle_psi, 2, lambda ix: ix[0] >= 1 and ix[1] >= 1),
    "GAMMA": RelationSpec(("a", "b", "c"), oracle_gamma),
    "B": RelationSpec(("a", "b", "c"), oracle_B),
    "DELTA": RelationSpec(("z0", "x", "zn"), oracle_delta, 1, lambda ix: ix[0] >= 1),
    "NEQ": RelationSpec(("x", "y"), oracle_distinct),
    "LE": RelationSpec(("a", "b", "c", "d"), oracle_le),
    "COLLINEAR": RelationSpec(("x", "y", "z"), oracle_collinear),
    "PARALLELOGRAM": RelationSpec(("a", "b", "c", "d"), oracle_parallelogram),
}


def oracle_truth(space: Space, rel: RelationId, points: tuple[Point, ...]) -> bool:
    """Dispatch a relation id to its oracle."""
    spec = RELATIONS[rel.name]
    if len(points) != len(spec.params):
        raise OracleError(f"{rel.label()} expects {len(spec.params)} points, got {len(points)}")
    return spec.oracle(space, *rel.indices, *points)


EQUIV2 = RelationId("EQUIV2")
GAMMA = RelationId("GAMMA")
LE = RelationId("LE")


def PHI(n: int) -> RelationId:
    return RelationId("PHI", (n,))


def ALPHA(n: int) -> RelationId:
    return RelationId("ALPHA", (n,))


def BETA(k: int) -> RelationId:
    return RelationId("BETA", (k,))


def PSI(n: int, k: int) -> RelationId:
    return RelationId("PSI", (n, k))


def DELTA(n: int) -> RelationId:
    return RelationId("DELTA", (n,))
