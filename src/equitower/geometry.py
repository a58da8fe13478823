"""Coordinate plane over p-norms with exact-rational and tolerant-float backends.

The only geometric primitive the definition tower is allowed to consume is
equidistance (``Space.eq_dist``): segment ab is as long as segment cd.  All
other comparisons offered here (scaled equality, length order, two-leg path
equality) exist for oracles, witness construction, and axiom checking.

An exact point is an :class:`ExactPoint`, normalised integers (X, Y, W)
with x = X/W and y = Y/W, fixed once when the point is built (as in Yap,
"Towards exact geometric computation", CGTA 1997): comparing and hashing
points, ``p_add``, ``p_sub``, ``affine_combination``, ``midpoint`` and the
comparison kernels (:mod:`equitower.kernel`, one per norm and backend) all
work on those integers.  ``Fraction``s appear only at the edges:
``Point(x, y)`` from rationals, ``.x``/``.y`` reads, and records.

Each norm has one function that returns every point where two spheres
meet: :func:`sphere_meets` picks it, :func:`sphere_intersection_point` checks
the inputs and takes the first point.  l1 and linf read the points off a 4x4
grid of pinned integer coordinates, float l2 has a closed formula and its
mirror image, and float lp bisects from a bracket on the line of centres;
a plane whose kernel does not construct (exact l2) is refused.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .kernel import ExactKernel, FloatKernel, kernel_for, sq_length
from .scalars import Rad, float_le, format_exact, parse_exact

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"
_FLOAT_COORD_MAX = sys.float_info.max / 4  # beyond it a difference or length can be inf, which float_eq matches

NORM_KINDS = ("l1", "l2", "linf", "lp")


class GeometryError(Exception):
    """Base for geometric construction and backend failures."""


class BackendMismatchError(GeometryError):
    """Points or scalars do not match the space's backend."""


class ExactBackendRefusedError(GeometryError):
    """The requested construction is irrational in general; use floats."""


class NoIntersectionError(GeometryError):
    """Sphere intersection precondition (annulus inclusion) fails."""


class SolverError(GeometryError):
    """A numeric witness construction did not converge to tolerance."""


_XYW = namedtuple("_XYW", "X Y W")


class Point(namedtuple("Point", "x y")):
    """A point of the plane.  ``Point(x, y)`` builds an :class:`ExactPoint`
    from ``int`` and ``Fraction`` coordinates; with a float coordinate the
    point is the pair ``(x, y)`` itself, as the float backend uses it."""

    __slots__ = ()

    def __new__(cls, x, y):
        if isinstance(x, float) or isinstance(y, float):
            return _new(Point, (x, y))
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        if xd == yd:
            return _new(ExactPoint, (xn, yn, xd))
        # reduced coordinates over the lcm of their denominators share no factor
        w = xd * yd // math.gcd(xd, yd)
        return _new(ExactPoint, (xn * (w // xd), yn * (w // yd), w))


class ExactPoint(Point):
    """A rational point stored as normalised integers (X, Y, W): x = X/W,
    y = Y/W, W > 0 and gcd(X, Y, W) = 1, so that points are equal, and hash
    alike, exactly when their triples are.  ``ExactPoint(X, Y, W)``
    normalises integers with W > 0.  As a sequence the point is ``(x, y)``,
    two ``Fraction``s."""

    __slots__ = ()
    X, Y, W = _XYW.X, _XYW.Y, _XYW.W  # C-level getters of the stored triple

    def __new__(cls, x: int, y: int, w: int):
        g = math.gcd(x, y, w)
        return _new(cls, (x, y, w) if g == 1 else (x // g, y // g, w // g))

    x = property(lambda self: Fraction(self.X, self.W))
    y = property(lambda self: Fraction(self.Y, self.W))

    def __iter__(self):
        return iter((self.x, self.y))

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index):
        return (self.x, self.y)[index]

    def __getnewargs__(self):
        return self.X, self.Y, self.W

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"


_new = tuple.__new__


def p_add(a: Point, b: Point) -> Point:
    if type(a) is ExactPoint and type(b) is ExactPoint:
        aw, bw = a.W, b.W
        return ExactPoint(a.X * bw + b.X * aw, a.Y * bw + b.Y * aw, aw * bw)
    return Point(a.x + b.x, a.y + b.y)


def p_sub(a: Point, b: Point) -> Point:
    if type(a) is ExactPoint and type(b) is ExactPoint:
        aw, bw = a.W, b.W
        return ExactPoint(a.X * bw - b.X * aw, a.Y * bw - b.Y * aw, aw * bw)
    return Point(a.x - b.x, a.y - b.y)


def cross(u: Point, v: Point) -> Scalar:
    return u.x * v.y - u.y * v.x


def affine_combination(a: Point, b: Point, t: Scalar) -> Point:
    """The point a + t*(b - a); exact when inputs and t are rational."""
    if type(a) is ExactPoint and type(b) is ExactPoint and not isinstance(t, float):
        tn, td = t.as_integer_ratio()
        aw, bw = a.W, b.W
        ax, ay = a.X * bw, a.Y * bw  # a over aw * bw
        return ExactPoint(ax * td + tn * (b.X * aw - ax), ay * td + tn * (b.Y * aw - ay), aw * bw * td)
    t = float(t)  # what mixed Fraction-float arithmetic would convert on every product
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def midpoint(a: Point, b: Point) -> Point:
    if type(a) is ExactPoint and type(b) is ExactPoint:
        aw, bw = a.W, b.W
        return ExactPoint(a.X * bw + b.X * aw, a.Y * bw + b.Y * aw, 2 * aw * bw)
    return Point(a.x + 0.5 * (b.x - a.x), a.y + 0.5 * (b.y - a.y))


@dataclass(frozen=True)
class NormSpec:
    """One of the plane norms: l1, l2, linf, or lp with rational p > 1."""

    kind: str
    p: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in NORM_KINDS:
            raise GeometryError(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or self.p <= 1:
                raise GeometryError("lp norm needs rational p > 1")
            if self.p > sys.float_info.max:
                raise GeometryError("lp norm needs p within the double range")
        elif self.p is not None:
            raise GeometryError(f"norm {self.kind} takes no p parameter")

    def label(self) -> str:
        if self.kind == "lp":
            return f"lp({format_exact(self.p)})"
        return self.kind


L1 = NormSpec("l1")
L2 = NormSpec("l2")
LINF = NormSpec("linf")


def lp(p: Fraction | int | str) -> NormSpec:
    return NormSpec("lp", Fraction(p))


# ----------------------------------------------------------------------
# scalar arguments of the comparisons
# ----------------------------------------------------------------------


def _float_coord(c) -> float:
    """A float coordinate; an integer or "p/q" string is read exactly and rounded once."""
    if isinstance(c, str) and "/" in c:
        c = parse_exact(c)
    if isinstance(c, (int, Fraction)) and abs(c) > _FLOAT_COORD_MAX:
        return math.inf if c > 0 else -math.inf
    if not isinstance(c, (int, float, str, Fraction)):
        raise GeometryError(f"a float coordinate is a number or a numeric string, got {c!r}")
    return float(c)


def _ratio(q) -> tuple[int, int]:
    """A rational as integers (num, den) with den > 0."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return q.as_integer_ratio()


def _scale(q) -> tuple[int, int]:
    """A scale factor q >= 0 as integers (num, den)."""
    qn, qd = _ratio(q)
    if qn < 0:
        raise GeometryError("scale factor must be nonnegative")
    return qn, qd


@dataclass(frozen=True)
class Space:
    """Norm + backend + comparison tolerance.

    Exact backend: permitted for l1, linf, and l2 (l2 equality and order are
    decided on squared distances, which stay rational).  lp with
    p outside {1, 2, inf} is float-only.  Tolerance must be 0 on the exact
    backend; on floats all comparisons use
    ``|u - v| <= tolerance * max(1, |u|, |v|)``, and the tolerance must lie
    in [0, 1): from 1 on, every two lengths would compare equal.

    ``kernel`` is the comparison kernel for the norm and backend, derived
    in ``__post_init__``; it takes no part in equality, hashing or repr.
    """

    norm: NormSpec = field(default=L2)
    backend: str = EXACT
    tolerance: float = 0.0
    kernel: ExactKernel | FloatKernel = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in (EXACT, FLOAT):
            raise GeometryError(f"unknown backend {self.backend!r}")
        if self.backend == EXACT:
            if self.norm.kind == "lp":
                raise GeometryError("lp norms are float-only; no exact backend")
            if self.tolerance != 0:
                raise GeometryError("exact backend uses zero tolerance")
        elif not 0 <= self.tolerance < math.inf:
            raise GeometryError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        elif self.tolerance >= 1:
            # |u - v| <= tol * max(1, |u|, |v|) then holds for any two lengths
            raise GeometryError(f"tolerance must be below 1, got {self.tolerance}: every two lengths would compare equal")
        object.__setattr__(self, "kernel", kernel_for(self.norm, self.backend, self.tolerance))

    # ------------------------------------------------------------------
    # point plumbing
    # ------------------------------------------------------------------

    def point(self, x, y) -> Point:
        if self.backend == EXACT:
            return Point(parse_exact(x), parse_exact(y))
        p = Point(_float_coord(x), _float_coord(y))
        if not (abs(p.x) <= _FLOAT_COORD_MAX and abs(p.y) <= _FLOAT_COORD_MAX):  # nan fails too
            raise GeometryError(f"float coordinates must be finite, |c| <= {_FLOAT_COORD_MAX:.3g}, got ({p.x}, {p.y})")
        return p

    def check_point(self, p: Point) -> Point:
        if self.backend == EXACT:
            ok = type(p) is ExactPoint
        else:  # floats take integer coordinates too
            ok = type(p) is Point or (type(p) is ExactPoint and p.W == 1)
        if not ok:
            raise BackendMismatchError(f"point {p!r} does not match backend {self.backend!r}")
        return p

    def points_eq(self, a: Point, b: Point) -> bool:
        return self.kernel.points_eq(a, b)

    # ------------------------------------------------------------------
    # length values, for constructions
    # ------------------------------------------------------------------

    def sq_dist(self, a: Point, b: Point) -> Fraction:
        if self.backend == EXACT:
            return Fraction(*sq_length(a, b))
        dx, dy = a.x - b.x, a.y - b.y
        return dx * dx + dy * dy

    def length_value(self, a: Point, b: Point):
        """d(a,b): a Fraction (refused when irrational) or, on floats, a double."""
        value = self.kernel.length_value(a, b)
        if value is None:
            raise ExactBackendRefusedError("irrational l2 length; witness construction needs the float backend")
        return value

    def length_ratio(self, a: Point, b: Point, c: Point, d: Point):
        """d(a,b) / d(c,d), as ``length_value`` gives lengths."""
        value = self.kernel.length_ratio(a, b, c, d)
        if value is None:
            raise ExactBackendRefusedError("irrational length ratio on exact l2; use floats")
        return value

    def length_is(self, a: Point, b: Point, value) -> bool:
        """d(a,b) = value, for a rational value (a double on floats)."""
        return self.kernel.length_is(a, b, value)

    def distance(self, a: Point, b: Point):
        """Length of segment ab as a backend scalar.

        Exact l1/linf: a Fraction.  Exact l2: a :class:`Rad` square-root
        value (rational exactly when the squared distance is a perfect
        square).  Float backend: a double.
        """
        self.check_point(a)
        self.check_point(b)
        if not self.kernel.constructs:
            return Rad.sqrt(self.sq_dist(a, b))
        return self.length_value(a, b)

    # ------------------------------------------------------------------
    # exact/tolerant comparisons used by every oracle
    # ------------------------------------------------------------------

    def eq_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        """The primitive relation: d(a,b) = d(c,d)."""
        return self.kernel.eq_dist(a, b, c, d)

    def eq_dist_scaled(self, a: Point, b: Point, q, c: Point, d: Point) -> bool:
        """d(a,b) = q * d(c,d) for rational q >= 0."""
        return self.kernel.eq_dist_scaled(a, b, *_scale(q), c, d)

    def le_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        """d(a,b) <= d(c,d)."""
        return self.kernel.le_dist(a, b, c, d)

    def le_dist_scaled(self, a: Point, b: Point, q, c: Point, d: Point) -> bool:
        """d(a,b) <= q * d(c,d) for rational q >= 0."""
        return self.kernel.le_dist_scaled(a, b, *_scale(q), c, d)

    def ge_dist_scaled(self, a: Point, b: Point, q, c: Point, d: Point) -> bool:
        """d(a,b) >= q * d(c,d) for rational q >= 0."""
        return self.kernel.ge_dist_scaled(a, b, *_scale(q), c, d)

    def path_sum_eq(self, a: Point, b: Point, c: Point) -> bool:
        """d(a,b) + d(b,c) = d(a,c): b is metrically on a shortest path."""
        return self.kernel.path_sum_eq(a, b, c)

    def path_defect_at_most(self, a: Point, b: Point, c: Point, coeff: Fraction) -> bool:
        """d(a,b) + d(b,c) <= d(a,c) + coeff * d(a,b), decided exactly.

        The defect d(a,b)+d(b,c)-d(a,c) is nonnegative (triangle
        inequality); this tests whether it is within coeff*d(a,b).  The
        blind band of the truncated metric-betweenness tower at depth K is
        exactly coeff = 2^(1-K).
        """
        cn, cd = _ratio(coeff)
        if not 0 <= cn <= cd:
            raise GeometryError("defect coefficient must lie in [0, 1]")
        return self.kernel.path_defect_at_most(a, b, c, cn, cd)

    def scaled_ratio_ceil(self, factor: int, num: tuple[Point, Point], den: tuple[Point, Point]) -> int:
        """ceil(factor * d(num) / d(den)), decided exactly on the exact backend."""
        ceil = self.kernel.scaled_ratio_ceil(factor, *num, *den)
        if ceil is None:
            raise GeometryError("ratio against a degenerate segment")
        return ceil

    def label(self) -> str:
        return f"{self.norm.label()}/{self.backend}"


# ----------------------------------------------------------------------
# spec'd operations as module-level functions
# ----------------------------------------------------------------------


def distance(space: Space, a: Point, b: Point):
    return space.distance(a, b)


# ----------------------------------------------------------------------
# sphere intersection
# ----------------------------------------------------------------------


def _as_length(space: Space, value) -> Scalar:
    if space.backend == FLOAT:
        v = float(value)
    else:
        if isinstance(value, Rad):
            value = value.as_fraction()
        if isinstance(value, float):
            raise BackendMismatchError(f"exact backend needs rational radii, got {value!r}")
        try:
            v = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise BackendMismatchError(f"exact backend needs rational radii, got {value!r}") from exc
    if v < 0:
        raise GeometryError("radii must be nonnegative")
    return v


def _edge_spots(u: int, v: int, radius: int) -> list[tuple[int, int]]:
    """(edge, position along it) for each edge through (u, v) of the square
    max(|u|, |v|) = radius, edges numbered counterclockwise from the corner
    (radius, radius)."""
    sides = ((v == radius, -u), (u == -radius, -v), (v == -radius, u), (u == radius, v))
    return [(k, at) for k, (on, at) in enumerate(sides) if on]


def _box_meets(space: Space, c: Point, radius_c, d: Point, radius_d) -> list[tuple[tuple, Point]]:
    """(edge key, point) for every point where two l1 or linf spheres meet.

    Centres and radii are brought over one integer denominator and l1 is
    rotated into the square frame, where both balls are axis-parallel
    squares.  Every crossing of two square edges, and every end of an
    overlap of two parallel edges, pins one coordinate to a side of each
    square, so the 4x4 grid of pinned coordinates holds all of them; the
    grid points on both squares are returned in pin order, empty when the
    spheres do not meet.  The key orders them by edge of c's ball, then by
    edge of d's ball, then by position along c's edge.  Float inputs are
    exact rationals too, but rounded: their tolerant annulus may miss the
    exact one, so the second radius is clamped into [|R - g|, R + g] first.
    """
    exact = space.backend == EXACT
    if not exact:  # a double is a binary fraction: take its exact value
        c, d = (Point(Fraction(p.x), Fraction(p.y)) for p in (c, d))
    (pn, pd), (rn, rd) = radius_c.as_integer_ratio(), radius_d.as_integer_ratio()
    den = math.lcm(c.W, d.W, pd, rd)
    cx, cy, dx, dy = (v * (den // p.W) for p in (c, d) for v in (p.X, p.Y))
    big, small = pn * (den // pd), rn * (den // rd)
    kind = space.norm.kind
    if kind == "l1":
        cx, cy, dx, dy = cx + cy, cx - cy, dx + dy, dx - dy
    gx, gy = dx - cx, dy - cy
    if not exact:
        gap = max(abs(gx), abs(gy))
        small = min(max(small, abs(big - gap)), big + gap)
    out: list[tuple[tuple, Point]] = []
    seen: set = set()
    for u in (big, -big, gx + small, gx - small):
        for v in (big, -big, gy + small, gy - small):
            if max(abs(u), abs(v)) != big or max(abs(u - gx), abs(v - gy)) != small or (u, v) in seen:
                continue
            seen.add((u, v))
            # the edges are numbered in linf's frame; l1's frame has its axes swapped
            spot_c, spot_d = ((v, u), (v - gy, u - gx)) if kind == "l1" else ((u, v), (u - gx, v - gy))
            key = min(
                (kc, kd, at) for kc, at in _edge_spots(*spot_c, big) for kd, _ in _edge_spots(*spot_d, small)
            )
            x, y, w = cx + u, cy + v, den
            if kind == "l1":
                x, y, w = x + y, x - y, 2 * den
            out.append((key, ExactPoint(x, y, w) if exact else Point(x / w, y / w)))
    return out


def _l2_float_meets(c: Point, radius_c: float, d: Point, radius_d: float) -> list[Point]:
    """The circle-circle point left of line cd and its mirror image; the one
    point (c.x + R, c.y) when |cd|^2 is 0, as for coincident centres."""
    vx, vy = d.x - c.x, d.y - c.y
    g_sq = vx * vx + vy * vy  # 0 also when it underflows, where the mirror cannot divide
    if g_sq == 0.0:
        return [Point(c.x + radius_c, c.y)]
    g = math.hypot(vx, vy)
    ux, uy = vx / g, vy / g
    along = (g * g + radius_c * radius_c - radius_d * radius_d) / (2.0 * g)
    h_sq = radius_c * radius_c - along * along
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    e = Point(c.x + along * ux - h * uy, c.y + along * uy + h * ux)
    t = ((e.x - c.x) * vx + (e.y - c.y) * vy) / g_sq
    foot = Point(c.x + t * vx, c.y + t * vy)
    return [e, Point(2.0 * foot.x - e.x, 2.0 * foot.y - e.y)]


def _lp_float_meets(space: Space, c: Point, radius_c: float, d: Point, radius_d: float) -> list[Point]:
    """Meeting points of two lp spheres from the annulus bracket.

    With u the unit vector from c towards d, d - (c +- R*u) = (|cd| -+ R)*u,
    so the residual |d - e| - r is ||cd| - R| - r <= 0 at e = c + R*u and
    |cd| + R - r >= 0 at e = c - R*u.  If the first is >= 0 or the second
    <= 0, up to the tolerance, that end is the answer: tangent spheres of a
    strictly convex plane meet only on the line of centres.  Otherwise each
    half of c's sphere, left then right of line cd, is bisected until the
    midpoint angle equals an end.
    """
    length = space.kernel.vector_length

    def on_ball(theta: float) -> Point:
        dx, dy = math.cos(theta), math.sin(theta)
        scale = radius_c / length(dx, dy)
        return Point(c.x + scale * dx, c.y + scale * dy)

    toward = math.atan2(d.y - c.y, d.x - c.x)
    near, far = on_ball(toward), on_ball(toward + math.pi)
    if float_le(radius_d, space.length_value(d, near), space.tolerance):
        return [near]
    if float_le(space.length_value(d, far), radius_d, space.tolerance):
        return [far]
    meets = []
    for lo, hi in ((toward, toward + math.pi), (toward, toward - math.pi)):
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if space.length_value(d, on_ball(mid)) < radius_d else (lo, mid)
        meets.append(on_ball(mid))
    return meets


def sphere_meets(space: Space, c: Point, radius_c, d: Point, radius_d) -> list[Point]:
    """Meeting points of S(c, radius_c) and S(d, radius_d); the caller has
    checked that the spheres meet.

    l1/linf: every point of the integer pin grid on both spheres, in pin
    order (on exact planes, none when the spheres do not meet).  Float l2
    and lp: a point left of line cd, then one right of it; one point alone
    where lp spheres meet on the line of centres or l2 centres coincide.
    A plane whose kernel does not construct is refused.
    """
    if not space.kernel.constructs:
        raise ExactBackendRefusedError("exact l2 sphere intersection is irrational in general; use the float backend")
    kind = space.norm.kind
    if kind in ("l1", "linf"):
        return [e for _, e in _box_meets(space, c, radius_c, d, radius_d)]
    if kind == "l2":
        return _l2_float_meets(c, radius_c, d, radius_d)
    return _lp_float_meets(space, c, radius_c, d, radius_d)


def sphere_intersection_point(space: Space, c: Point, radius_c, d: Point, radius_d) -> Point:
    """A point e with d(c,e) = radius_c and d(d,e) = radius_d.

    Precondition (checked): ``|R - r| <= d(c,d) <= R + r``, which in a
    two-dimensional normed plane is exactly when such a point exists.
    l1/linf, on both backends: the first meeting point of the integer pin
    grid by edge of c's ball, then edge of d's ball, then position along
    c's edge.  Other norms: the first point of :func:`sphere_meets`.  The
    point is checked against both lengths.
    """
    space.check_point(c)
    space.check_point(d)
    rc = _as_length(space, radius_c)
    rd = _as_length(space, radius_d)
    if not space.kernel.annulus_ok(c, rc, d, rd):
        raise NoIntersectionError(
            f"spheres ({c}, r={rc}) and ({d}, r={rd}) do not meet in {space.label()}"
        )
    if space.norm.kind in ("l1", "linf"):
        e = min(_box_meets(space, c, rc, d, rd))[1]
    else:
        e = sphere_meets(space, c, rc, d, rd)[0]
    if not (space.length_is(c, e, rc) and space.length_is(d, e, rd)):
        raise SolverError(f"constructed intersection fails its distance constraints in {space.label()}")
    return e


# ----------------------------------------------------------------------
# point (de)serialization helpers
# ----------------------------------------------------------------------


def point_to_record(space: Space, p: Point) -> dict:
    if space.backend == EXACT:
        return {"x": format_exact(p.x), "y": format_exact(p.y)}
    return {"x": p.x, "y": p.y}


def point_from_record(space: Space, rec: dict) -> Point:
    if not isinstance(rec, dict) or "x" not in rec or "y" not in rec:
        raise GeometryError(f"point record needs x and y fields, got {rec!r}")
    if space.backend == EXACT and isinstance(rec["x"], float):
        raise BackendMismatchError("exact backend point files use 'p/q' strings or ints")
    return space.point(rec["x"], rec["y"])
