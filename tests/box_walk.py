"""Reference construction for l1/linf sphere meets: the boundary walk.

Intersects each edge of c's ball, in vertex order, with each edge of d's
ball in exact ``Fraction`` arithmetic and returns the first hit (for two
overlapping parallel edges, the overlap end nearest the start of c's
edge).  ``equitower.geometry.sphere_intersection_point`` must return the
same point; the tests compare the two, and check lengths with
``box_length`` rather than with the package's kernels.
"""

from fractions import Fraction

from equitower.geometry import Point, affine_combination, cross, p_sub


def box_length(kind: str, a: Point, b: Point) -> Fraction:
    """The l1 or linf length in plain ``Fraction`` arithmetic."""
    dx, dy = abs(Fraction(a.x) - b.x), abs(Fraction(a.y) - b.y)
    return dx + dy if kind == "l1" else max(dx, dy)


def dot(u: Point, v: Point):
    return u.x * v.x + u.y * v.y


def ball_vertices(kind: str, center: Point, radius) -> list[Point]:
    x, y = center
    if kind == "l1":
        return [Point(x + radius, y), Point(x, y + radius), Point(x - radius, y), Point(x, y - radius)]
    return [
        Point(x + radius, y + radius),
        Point(x - radius, y + radius),
        Point(x - radius, y - radius),
        Point(x + radius, y - radius),
    ]


def segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Point | None:
    u = p_sub(p2, p1)
    w = p_sub(q2, q1)
    denom = cross(u, w)
    offset = p_sub(q1, p1)
    if denom != 0:
        t = Fraction(cross(offset, w), denom)
        s = Fraction(cross(offset, u), denom)
        if 0 <= t <= 1 and 0 <= s <= 1:
            return affine_combination(p1, p2, t)
        return None
    if cross(offset, u) != 0:
        return None
    # collinear overlap: clamp the q-segment's parameter range into [0, 1]
    uu = dot(u, u)
    if uu == 0:
        return None
    t1 = Fraction(dot(offset, u), uu)
    t2 = Fraction(dot(p_sub(q2, p1), u), uu)
    lo = max(Fraction(0), min(t1, t2))
    hi = min(Fraction(1), max(t1, t2))
    if lo > hi:
        return None
    return affine_combination(p1, p2, lo)


def walk_meet(kind: str, c: Point, radius_c: Fraction, d: Point, radius_d: Fraction) -> Point | None:
    """The walk's meeting point of two exact l1 or linf spheres, or None."""
    if radius_c == 0:
        return c
    if radius_d == 0:
        return d
    if c == d:
        # annulus forces equal radii; pick the +x boundary point
        if kind == "l1":
            return Point(c.x + radius_c, c.y)
        return Point(c.x + radius_c, c.y + radius_c)
    vc = ball_vertices(kind, c, radius_c)
    vd = ball_vertices(kind, d, radius_d)
    for i in range(4):
        for j in range(4):
            hit = segment_intersection(vc[i], vc[(i + 1) % 4], vd[j], vd[(j + 1) % 4])
            if hit is not None:
                return hit
    return None
