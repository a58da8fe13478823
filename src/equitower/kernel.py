"""Comparison kernels: how a ``Space`` decides length comparisons.

There is one kernel per norm and backend: exact l1, exact linf, exact l2,
or float (any norm).  ``kernel_for`` picks it; ``Space`` holds it and
validates the arguments before calling it.

An exact kernel reads the integers (X, Y, W) of each
:class:`~equitower.geometry.ExactPoint` and never builds a ``Fraction`` on
the comparison path.  A length is an integer pair ``(num, den)`` with
``den > 0``: the l1 or linf length, or the squared l2 length, over the
product of the two points' denominators.  Two lengths compare by
cross-multiplication (``n1*d2 == n2*d1``), and a rational scale ``qn/qd``
enters the same way, squared on l2.  Sums of l2 lengths (``path_sum_eq``,
``path_defect_at_most``) are decided by squaring out the radicals on
integers.  The float kernel compares doubles with ``float_eq``/``float_le``
under the space's tolerance.

Kernels also own the length *values* that constructions need: the length
d(a,b), the ratio d(a,b)/d(c,d), and the test d(a,b) = r.  Exact kernels
give ``Fraction``s (an exact l2 length or ratio is the rational root of
the squared one, or ``None`` when that root is irrational) and test
d(a,b) = r on integers, squared on l2; the float kernel gives doubles.
Both kinds of kernel also decide collinearity and affine betweenness on
difference vectors: integers on the exact kernels, and on the float kernel
the coordinate differences, read through ``.x``/``.y``, under the tolerance.
The float kernel's ``length`` and ``between_vectors`` take bare
coordinates, so map fuzzing decides rows of doubles without building points.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import ceil_sqrt, float_eq, float_le

if TYPE_CHECKING:
    from .geometry import NormSpec, Point


def _rational_root(n: int, d: int) -> Fraction | None:
    """sqrt(n/d) for integers n >= 0, d > 0, or None when it is irrational."""
    root = math.isqrt(n * d)
    return Fraction(root, d) if root * root == n * d else None


def sq_length(a: Point, b: Point) -> tuple[int, int]:
    """The squared Euclidean length of ab as integers (num, den), den > 0."""
    aw, bw = a.W, b.W
    dx, dy, w = a.X * bw - b.X * aw, a.Y * bw - b.Y * aw, aw * bw
    return dx * dx + dy * dy, w * w


def _vectors(a: Point, b: Point, c: Point) -> tuple[int, int, int, int]:
    """b - a and c - a as integer vectors over one positive denominator."""
    ax, ay, aw, bw, cw = a.X, a.Y, a.W, b.W, c.W
    return (
        (b.X * aw - ax * bw) * cw,
        (b.Y * aw - ay * bw) * cw,
        (c.X * aw - ax * cw) * bw,
        (c.Y * aw - ay * cw) * bw,
    )


def int_between(px: int, py: int, qx: int, qy: int) -> bool:
    """p = t*q for some t in [0, 1]; with p = b-a and q = c-a, b lies on ac."""
    if qx == 0 and qy == 0:
        return px == 0 and py == 0
    return px * qy == py * qx and 0 <= px * qx + py * qy <= qx * qx + qy * qy


class ExactKernel:
    """Exact comparisons on integer lengths ``(num, den)``, den > 0.

    Subclasses define ``length(a, b)``; ``squared`` is set when that is the
    squared length, so that scale factors enter squared too.
    """

    squared = False

    @staticmethod
    def points_eq(a: Point, b: Point) -> bool:
        return a == b  # normalised triples

    @staticmethod
    def collinear(a: Point, b: Point, c: Point) -> bool:
        ux, uy, vx, vy = _vectors(a, b, c)
        return ux * vy == uy * vx

    @staticmethod
    def between(a: Point, b: Point, c: Point) -> bool:
        """b = a + t(c - a) for some t in [0, 1]."""
        return int_between(*_vectors(a, b, c))

    def eq_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(c, d)
        return n1 * d2 == n2 * d1

    def le_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(c, d)
        return n1 * d2 <= n2 * d1

    def _scaled_sides(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> tuple[int, int]:
        """Integers ordered as d(a,b) is to (qn/qd) * d(c,d)."""
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(c, d)
        if self.squared:
            qn, qd = qn * qn, qd * qd
        return n1 * d2 * qd, qn * n2 * d1

    def eq_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        lhs, rhs = self._scaled_sides(a, b, qn, qd, c, d)
        return lhs == rhs

    def le_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        lhs, rhs = self._scaled_sides(a, b, qn, qd, c, d)
        return lhs <= rhs

    def ge_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        lhs, rhs = self._scaled_sides(a, b, qn, qd, c, d)
        return lhs >= rhs

    def scaled_ratio_ceil(self, factor: int, a: Point, b: Point, c: Point, d: Point) -> int | None:
        """ceil(factor * d(a,b) / d(c,d)), or None when d(c,d) = 0."""
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(c, d)
        if n2 == 0:
            return None
        if self.squared:
            return ceil_sqrt(factor * factor * n1 * d2, d1 * n2)
        return -(-factor * n1 * d2 // (d1 * n2))

    def length_value(self, a: Point, b: Point) -> Fraction | None:
        """d(a,b), or None when it is irrational."""
        n, d = self.length(a, b)
        return _rational_root(n, d) if self.squared else Fraction(n, d)

    def length_ratio(self, a: Point, b: Point, c: Point, d: Point) -> Fraction | None:
        """d(a,b) / d(c,d), or None when it is irrational."""
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(c, d)
        n, d = n1 * d2, d1 * n2
        return _rational_root(n, d) if self.squared else Fraction(n, d)

    def length_is(self, a: Point, b: Point, value) -> bool:
        """d(a,b) = value for a rational value."""
        n, d = self.length(a, b)
        vn, vd = value.as_integer_ratio()
        if self.squared:
            vn, vd = vn * vn, vd * vd
        return n * vd == vn * d

    def annulus_ok(self, c: Point, radius_c, d: Point, radius_d) -> bool:
        """|R - r| <= d(c,d) <= R + r, over the radii's common denominator."""
        pn, pd = radius_c.as_integer_ratio()
        rn, rd = radius_d.as_integer_ratio()
        gn, gd = self.length(c, d)
        lo, hi, den = abs(pn * rd - rn * pd), pn * rd + rn * pd, pd * rd
        if self.squared:
            lo, hi, den = lo * lo, hi * hi, den * den
        return lo * gd <= gn * den <= hi * gd


class _BoxKernel(ExactKernel):
    """l1 and linf, whose lengths are rational."""

    def path_sum_eq(self, a: Point, b: Point, c: Point) -> bool:
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(b, c)
        n3, d3 = self.length(a, c)
        return (n1 * d2 + n2 * d1) * d3 == n3 * d1 * d2

    def path_defect_at_most(self, a: Point, b: Point, c: Point, cn: int, cd: int) -> bool:
        # (1 - cn/cd) * d(a,b) + d(b,c) <= d(a,c), times cd*d1*d2*d3
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(b, c)
        n3, d3 = self.length(a, c)
        return ((cd - cn) * n1 * d2 + cd * n2 * d1) * d3 <= cd * n3 * d1 * d2


class _ExactL1Kernel(_BoxKernel):
    @staticmethod
    def length(a: Point, b: Point) -> tuple[int, int]:
        aw, bw = a.W, b.W
        return abs(a.X * bw - b.X * aw) + abs(a.Y * bw - b.Y * aw), aw * bw


class _ExactLinfKernel(_BoxKernel):
    @staticmethod
    def length(a: Point, b: Point) -> tuple[int, int]:
        aw, bw = a.W, b.W
        return max(abs(a.X * bw - b.X * aw), abs(a.Y * bw - b.Y * aw)), aw * bw


class _ExactL2Kernel(ExactKernel):
    squared = True
    length = staticmethod(sq_length)

    def path_sum_eq(self, a: Point, b: Point, c: Point) -> bool:
        # sqrt(A) + sqrt(B) = sqrt(C)  <=>  C - A - B >= 0 and (C-A-B)^2 = 4AB;
        # both sides are multiplied by the product of the three denominators
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(b, c)
        n3, d3 = self.length(a, c)
        lead = n3 * d1 * d2 - (n1 * d2 + n2 * d1) * d3
        return lead >= 0 and lead * lead == 4 * n1 * n2 * d1 * d2 * d3 * d3

    def path_defect_at_most(self, a: Point, b: Point, c: Point, cn: int, cd: int) -> bool:
        # (s/cd) sqrt(n1/d1) + sqrt(n2/d2) <= sqrt(n3/d3) with s = cd - cn, times
        # cd * sqrt(d1*d2*d3): sqrt(P) + sqrt(Q) <= sqrt(R), squared out as above
        n1, d1 = self.length(a, b)
        n2, d2 = self.length(b, c)
        n3, d3 = self.length(a, c)
        s = cd - cn
        p, q, r = s * s * n1 * d2 * d3, cd * cd * n2 * d1 * d3, cd * cd * n3 * d1 * d2
        lead = r - p - q
        return lead >= 0 and lead * lead >= 4 * p * q


_EXACT_KERNELS = {"l1": _ExactL1Kernel(), "linf": _ExactLinfKernel(), "l2": _ExactL2Kernel()}


# the length of a vector (x, y) in a box norm, of integers or of doubles
BOX_LENGTHS = {"l1": lambda x, y: abs(x) + abs(y), "linf": lambda x, y: max(abs(x), abs(y))}
_FLOAT_LENGTHS = {**BOX_LENGTHS, "l2": math.hypot}


def _lp_length(p: float, x: float, y: float) -> float:
    try:
        return (abs(x) ** p + abs(y) ** p) ** (1.0 / p)
    except OverflowError:  # a power past the double range: scale by the larger coordinate first
        m = max(abs(x), abs(y))
        return m * ((abs(x) / m) ** p + (abs(y) / m) ** p) ** (1.0 / p)


class FloatKernel:
    """Double-precision comparisons under ``float_eq``/``float_le`` with a tolerance.
    ``dist(a, b)`` is ``length(x, y)``, the norm of a vector, taken of a - b."""

    def __init__(self, norm: NormSpec, tolerance: float):
        if norm.kind == "lp":
            length = functools.partial(_lp_length, float(norm.p))
        else:
            length = _FLOAT_LENGTHS[norm.kind]
        self.length = length
        self.dist = lambda a, b: length(a.x - b.x, a.y - b.y)
        self.tol = tolerance

    def points_eq(self, a: Point, b: Point) -> bool:
        return float_eq(self.dist(a, b), 0.0, self.tol)

    def length_value(self, a: Point, b: Point) -> float:
        return self.dist(a, b)

    def length_ratio(self, a: Point, b: Point, c: Point, d: Point) -> float:
        return self.dist(a, b) / self.dist(c, d)

    def length_is(self, a: Point, b: Point, value) -> bool:
        return float_eq(self.dist(a, b), float(value), self.tol)

    def eq_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        return float_eq(self.dist(a, b), self.dist(c, d), self.tol)

    def le_dist(self, a: Point, b: Point, c: Point, d: Point) -> bool:
        return float_le(self.dist(a, b), self.dist(c, d), self.tol)

    def eq_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        return float_eq(self.dist(a, b), qn / qd * self.dist(c, d), self.tol)

    def le_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        return float_le(self.dist(a, b), qn / qd * self.dist(c, d), self.tol)

    def ge_dist_scaled(self, a: Point, b: Point, qn: int, qd: int, c: Point, d: Point) -> bool:
        return float_le(qn / qd * self.dist(c, d), self.dist(a, b), self.tol)

    def path_sum_eq(self, a: Point, b: Point, c: Point) -> bool:
        return float_eq(self.dist(a, b) + self.dist(b, c), self.dist(a, c), self.tol)

    def path_defect_at_most(self, a: Point, b: Point, c: Point, cn: int, cd: int) -> bool:
        lhs = self.dist(a, b) + self.dist(b, c)
        rhs = self.dist(a, c) + cn / cd * self.dist(a, b)
        return float_le(lhs, rhs, self.tol)

    def scaled_ratio_ceil(self, factor: int, a: Point, b: Point, c: Point, d: Point) -> int | None:
        """ceil(factor * d(a,b) / d(c,d)), or None when d(c,d) = 0."""
        dd = self.dist(c, d)
        if dd == 0.0:
            return None
        return math.ceil(factor * self.dist(a, b) / dd)

    def collinear(self, a: Point, b: Point, c: Point) -> bool:
        ax, ay = a.x, a.y
        px, py, qx, qy = b.x - ax, b.y - ay, c.x - ax, c.y - ay
        scale = max(1.0, abs(px), abs(py)) * max(1.0, abs(qx), abs(qy))
        return abs(px * qy - py * qx) <= self.tol * scale

    def between(self, a: Point, b: Point, c: Point) -> bool:
        """b = a + t(c - a) for some t in [0, 1], within the tolerance."""
        ax, ay = a.x, a.y
        return self.between_vectors(b.x - ax, b.y - ay, c.x - ax, c.y - ay)

    def between_vectors(self, px, py, qx, qy) -> bool:
        """p = t*q for some t in [0, 1], within the tolerance; with p = b-a and
        q = c-a, b lies on ac.  A cross product within tol times the scale of
        the two vectors counts as zero."""
        tol = self.tol
        if float_eq(self.length(qx, qy), 0.0, tol):  # a = c
            return float_eq(self.length(px, py), 0.0, tol)
        scale = max(1.0, abs(qx), abs(qy)) * max(1.0, abs(px), abs(py))
        if abs(qx * py - qy * px) > tol * scale:
            return False
        t = (px * qx + py * qy) / (qx * qx + qy * qy)
        return -tol <= t <= 1.0 + tol

    def annulus_ok(self, c: Point, radius_c, d: Point, radius_d) -> bool:
        big, small = max(radius_c, radius_d), min(radius_c, radius_d)
        g = self.dist(c, d)
        return float_le(big - small, g, self.tol) and float_le(g, big + small, self.tol)


def kernel_for(norm: NormSpec, backend: str, tolerance: float) -> ExactKernel | FloatKernel:
    """The kernel of a validated (norm, backend, tolerance): exact kernels are shared."""
    if backend == "exact":
        return _EXACT_KERNELS[norm.kind]
    return FloatKernel(norm, tolerance)
