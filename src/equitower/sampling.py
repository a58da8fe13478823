"""Seeded samplers for rational points and relation-biased configurations.

Random tuples essentially never satisfy an exact distance relation, so every
relation gets a constructive positive sampler alongside plain random and
degenerate draws.  Two building blocks make exact positives possible in any
of the supported norms:

* ``isometry generator`` matrices: linear maps preserving the norm exactly
  (rational rotations/reflections for l2; the eight signed coordinate
  permutations for l1/linf/lp).  Applying one to a segment vector yields a
  second segment of exactly equal length.  They are kept once as integer
  rows ``(m11, m12, m21, m22, k)``, the matrix times k, which
  ``equal_length_mate`` and map fuzzing apply to a point's integers.
* rational-side triangles for l2: gluing two rational right triangles along
  a common height gives triples of points whose pairwise Euclidean
  distances are all rational, so ray constructions scale rationally.

Every random point is one ``point_draws`` call: the four integers that
four ``randint`` calls would draw, from the same bits in the same order.
``rand_point`` builds (X, Y, W) from them, map fuzzing builds its rows
from them, and ``equal_length_mate`` and ``scale_vector`` multiply a
point's integers.  All sampling is driven by a caller-supplied
``random.Random`` through ``randint``, ``choice`` and ``point_draws``,
which keep its own ``randint``/``choice`` stream, draw for draw.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import ExactPoint, Point, Space, affine_combination, p_add

Matrix = tuple[Fraction, Fraction, Fraction, Fraction]  # row-major 2x2
Row = tuple[int, int, int, int, int]  # (m11, m12, m21, m22, k): the matrix [[m11, m12], [m21, m22]] / k


def rational_rotation(leg_a: int, leg_b: int) -> Row:
    """Rotation by the angle of a rational point on the unit circle.

    Uses (leg_a^2 - leg_b^2, 2*leg_a*leg_b) / (leg_a^2 + leg_b^2): an exact
    orthogonal matrix with rational entries, as the row (cos, -sin, sin,
    cos, hyp) of integers over hyp = leg_a^2 + leg_b^2.
    """
    cos, sin = leg_a * leg_a - leg_b * leg_b, 2 * leg_a * leg_b
    return (cos, -sin, sin, cos, leg_a * leg_a + leg_b * leg_b)


# the identity and the swap of coordinates, under each sign of each coordinate
SIGNED_PERMUTATIONS: tuple[Row, ...] = tuple(
    (0, sx, sy, 0, 1) if swap else (sx, 0, 0, sy, 1) for swap in (False, True) for sy in (1, -1) for sx in (1, -1)
)

L2_GENERATORS: tuple[Row, ...] = (
    (1, 0, 0, 1, 1),
    rational_rotation(2, 1),  # the 3-4-5 rotation
    rational_rotation(3, 2),  # the 5-12-13 rotation
    (1, 0, 0, -1, 1),  # x-axis reflection
)

# (norm is l2, backend) -> generator rows; on floats each entry is divided
# by k once (``m / k`` rounds as ``float(Fraction(m, k))`` does), and k = 1
_ROWS = {
    (l2, backend): rows if backend == "exact" else tuple((a / k, b / k, c / k, d / k, 1) for a, b, c, d, k in rows)
    for l2, rows in ((True, L2_GENERATORS), (False, SIGNED_PERMUTATIONS))
    for backend in ("exact", "float")
}


def randint(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)`` on the same stream: like CPython, draw n.bit_length()
    bits until they fall below n = b - a + 1, but skip its argument checks."""
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def choice(rng: random.Random, seq):
    """``rng.choice(seq)`` on the same stream: an index drawn by ``randint``."""
    return seq[randint(rng, 0, len(seq) - 1)]


def point_draws(rng: random.Random, span: int = 24, max_den: int = 8) -> tuple[int, int, int, int]:
    """(xn, xd, yn, yd) as ``randint(rng, -span, span)``, ``randint(rng, 1, max_den)``,
    ``randint(rng, -span, span)``, ``randint(rng, 1, max_den)`` draw them, draw for
    draw, with the four rejection loops written out: a point is one call."""
    bits, n = rng.getrandbits, 2 * span + 1
    k, j = n.bit_length(), max_den.bit_length()
    while (xn := bits(k)) >= n:
        pass
    while (xd := bits(j)) >= max_den:
        pass
    while (yn := bits(k)) >= n:
        pass
    while (yd := bits(j)) >= max_den:
        pass
    return xn - span, xd + 1, yn - span, yd + 1


def generator_rows(space: Space) -> tuple[Row, ...]:
    """The isometry generators of the space's norm as integer rows; on the
    float backend, as doubles with k = 1."""
    return _ROWS[space.norm.kind == "l2", space.backend]


def isometry_generators(space: Space) -> tuple[Matrix, ...]:
    """The isometry generators as ``Fraction`` matrices, for building maps."""
    return tuple(tuple(Fraction(m, row[4]) for m in row[:4]) for row in _ROWS[space.norm.kind == "l2", "exact"])


def rand_fraction(rng: random.Random, span: int = 24, max_den: int = 8) -> Fraction:
    return Fraction(randint(rng, -span, span), randint(rng, 1, max_den))


def rand_positive_fraction(rng: random.Random, span: int = 12, max_den: int = 8) -> Fraction:
    return Fraction(randint(rng, 1, span), randint(rng, 1, max_den))


def rand_unit_fraction(rng: random.Random, max_den: int = 16) -> Fraction:
    """A rational strictly inside (0, 1)."""
    den = randint(rng, 2, max_den)
    return Fraction(randint(rng, 1, den - 1), den)


def rand_point(space: Space, rng: random.Random, span: int = 24, max_den: int = 8) -> Point:
    """A point with coordinates drawn as by ``rand_fraction``: x = xn/xd and
    y = yn/yd from ``point_draws``, built exactly as (xn*yd, yn*xd, xd*yd).  On
    floats the int division rounds correctly, so it equals ``float(rand_fraction(...))``."""
    xn, xd, yn, yd = point_draws(rng, span, max_den)
    if space.backend == "float":
        return Point(xn / xd, yn / yd)
    return ExactPoint(xn * yd, yn * xd, xd * yd)


def rand_nonzero_vector(space: Space, rng: random.Random, span: int = 12) -> Point:
    zero = Point(0.0, 0.0) if space.backend == "float" else Point(0, 0)
    while True:
        v = rand_point(space, rng, span=span, max_den=4)
        if v != zero:
            return v


def equal_length_mate(space: Space, rng: random.Random, v: Point) -> Point:
    """A vector of exactly the same norm as v (exact even on floats up to rounding)."""
    m11, m12, m21, m22, k = choice(rng, generator_rows(space))
    if space.backend == "float":
        return Point(m11 * v.x + m12 * v.y, m21 * v.x + m22 * v.y)
    return ExactPoint(m11 * v.X + m12 * v.Y, m21 * v.X + m22 * v.Y, k * v.W)


def scale_vector(space: Space, v: Point, q: Fraction | int) -> Point:
    """q * v for a rational q, converted to a double once on floats."""
    if space.backend == "float":
        q = float(q)
        return Point(q * v.x, q * v.y)
    qn, qd = q.as_integer_ratio()
    return ExactPoint(qn * v.X, qn * v.Y, qd * v.W)


def rational_distance_triangle(
    rng: random.Random, span: int = 6
) -> tuple[Point, Point, Point, Fraction, Fraction, Fraction]:
    """Points b, a, c with all three pairwise l2 distances rational.

    Returns (b, a, c, d_ba, d_ac, d_bc).  Built from two rational points on
    circles sharing the same height, then translated by a random rational
    vector.  Degenerate (collinear) outputs are possible and legal.
    """
    r = rand_positive_fraction(rng, span=span, max_den=4)
    t1 = Fraction(randint(rng, 1, 5), randint(rng, 1, 5))
    t2 = Fraction(randint(rng, 1, 5), randint(rng, 1, 5))
    # (x, h) at rational distance r from the origin
    x = r * (1 - t1 * t1) / (1 + t1 * t1)
    h = r * 2 * t1 / (1 + t1 * t1)
    # (lam - x, h) at rational distance u from the origin
    u = h * (1 + t2 * t2) / (2 * t2)
    lam = x + u * (1 - t2 * t2) / (1 + t2 * t2)
    if rng.random() < 0.5:
        h = -h
    shift = Point(rand_fraction(rng), rand_fraction(rng))
    b = shift
    a = p_add(shift, Point(x, h))
    c = p_add(shift, Point(lam, Fraction(0)))
    return b, a, c, r, u, abs(lam)


def collinear_triple(space: Space, rng: random.Random) -> tuple[Point, Point, Point]:
    """a, b, c with b strictly inside segment ac and a != c."""
    a = rand_point(space, rng)
    while True:
        c = rand_point(space, rng)
        if not space.points_eq(a, c):
            break
    return a, affine_combination(a, c, rand_unit_fraction(rng)), c


def box_path_triple(space: Space, rng: random.Random) -> tuple[Point, Point, Point]:
    """A triple satisfying d(a,b) + d(b,c) = d(a,c) that can sit off the segment.

    In l1 any b inside the coordinate rectangle of (a, c) works; in linf a
    staircase point with dominated cross-coordinate works.  For l2 (strictly
    convex) this falls back to an on-segment point.
    """
    kind = space.norm.kind
    a = rand_point(space, rng)
    if kind == "l1":
        dx, dy = rand_positive_fraction(rng), rand_positive_fraction(rng)
        b = p_add(a, Point(dx * rand_unit_fraction(rng), dy * rand_unit_fraction(rng)))
        c = p_add(a, Point(dx, dy))
        return a, b, c
    if kind == "linf":
        total = rand_positive_fraction(rng) + 2
        split = total * rand_unit_fraction(rng)
        rise = total * rand_unit_fraction(rng)
        # keep |rise| <= split and |total-split| >= |rise - y_c| trivially via y_c = 0
        if rise > split:
            rise = split
        if rise > total - split:
            rise = total - split
        b = p_add(a, Point(split, rise))
        c = p_add(a, Point(total, Fraction(0)))
        return a, b, c
    return collinear_triple(space, rng)
