"""Reference float betweenness and collinearity, over points.

This is the arithmetic the float ``oracle_B`` and ``oracle_collinear`` ran
before it moved into ``equitower.kernel.FloatKernel``: difference vectors
through ``p_sub``, the cross product through ``cross``, a tolerance scaled
by the larger coordinates of the two vectors, and t = <v, u> / <u, u>.
Lengths and the tolerant equality are written out here, so the tests
compare the kernel with arithmetic it does not share.
"""

import math

from equitower.geometry import Point, cross, p_sub


def ref_dist(space, a: Point, b: Point) -> float:
    """d(a, b) in the space's norm, in doubles."""
    dx, dy = a.x - b.x, a.y - b.y
    kind = space.norm.kind
    if kind == "l1":
        return abs(dx) + abs(dy)
    if kind == "linf":
        return max(abs(dx), abs(dy))
    if kind == "l2":
        return math.hypot(dx, dy)
    p = float(space.norm.p)
    return (abs(dx) ** p + abs(dy) ** p) ** (1.0 / p)


def ref_points_eq(space, a: Point, b: Point) -> bool:
    d = ref_dist(space, a, b)
    return abs(d) <= space.tolerance * max(1.0, abs(d))


def ref_between(space, a: Point, b: Point, c: Point) -> bool:
    """b = a + t(c - a) for some t in [0, 1], within the space's tolerance."""
    tol = space.tolerance
    if ref_points_eq(space, a, c):
        return ref_points_eq(space, b, a)
    u = p_sub(c, a)
    v = p_sub(b, a)
    scale = max(1.0, abs(u.x), abs(u.y)) * max(1.0, abs(v.x), abs(v.y))
    if abs(cross(u, v)) > tol * scale:
        return False
    denom = u.x * u.x + u.y * u.y
    t = (v.x * u.x + v.y * u.y) / denom
    return -tol <= t <= 1.0 + tol


def ref_collinear(space, a: Point, b: Point, c: Point) -> bool:
    u = p_sub(b, a)
    v = p_sub(c, a)
    scale = max(1.0, abs(u.x), abs(u.y)) * max(1.0, abs(v.x), abs(v.y))
    return abs(cross(u, v)) <= space.tolerance * scale
