"""Independent re-derivations of every relation, used as acceptance oracles.

Deliberately separate code paths from the package: metric relations are
recomputed with 100-digit decimal arithmetic straight from coordinates;
affine relations are re-solved with plain Fraction algebra.

Zero-vs-nonzero decisions are safe because sampler rationals have bounded
denominators: any nonzero value of the compared expressions exceeds
roughly 1e-45 in magnitude, while 100-digit evaluation errs below 1e-80,
so the 1e-55 threshold cleanly separates exact zeros from everything else.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction

from equitower import Point

getcontext().prec = 100
ZERO_GAP = Decimal("1e-55")


def _dec(q) -> Decimal:
    f = Fraction(q)
    return Decimal(f.numerator) / Decimal(f.denominator)


def dec_dist(kind: str, a: Point, b: Point) -> Decimal:
    dx = abs(_dec(a.x) - _dec(b.x))
    dy = abs(_dec(a.y) - _dec(b.y))
    if kind == "l1":
        return dx + dy
    if kind == "linf":
        return max(dx, dy)
    return (dx * dx + dy * dy).sqrt()


def _is_zero(value: Decimal) -> bool:
    return abs(value) < ZERO_GAP


def _le(value: Decimal, bound: Decimal) -> bool:
    return value <= bound or _is_zero(value - bound)


def brute_equidistant(kind, a, b, c, d) -> bool:
    return _is_zero(dec_dist(kind, a, b) - dec_dist(kind, c, d))


def brute_scaled(kind, a, b, q, c, d) -> bool:
    return _is_zero(dec_dist(kind, a, b) - _dec(q) * dec_dist(kind, c, d))


def brute_equiv2(kind, a, b, c, d) -> bool:
    return brute_scaled(kind, a, b, 2, c, d)


def brute_midpoint(a, b, c) -> bool:
    return (a.x + c.x == 2 * b.x) and (a.y + c.y == 2 * b.y) and (a != c)


def brute_phi0(kind, a, b, x) -> bool:
    return brute_equidistant(kind, x, a, x, b) and brute_scaled(kind, a, b, 2, x, a)


def brute_alpha(n, a, b, x) -> bool:
    if a == b:
        return False
    return x.x == a.x + n * (b.x - a.x) and x.y == a.y + n * (b.y - a.y)


def brute_beta(k, a, b, y) -> bool:
    if a == b:
        return False
    t = Fraction(1, 2**k)
    return y.x == a.x + t * (b.x - a.x) and y.y == a.y + t * (b.y - a.y)


def brute_psi(kind, n, k, a, b, c, d) -> bool:
    if a == b or c == d:
        return False
    u = dec_dist(kind, a, b)
    g = dec_dist(kind, c, d)
    lo = _dec(Fraction(n - 1, 2**k)) * u
    hi = _dec(Fraction(n + 1, 2**k)) * u
    return _le(lo, g) and _le(g, hi)


def brute_gamma(kind, a, b, c) -> bool:
    if a == b or b == c or a == c:
        return False
    return _is_zero(dec_dist(kind, a, b) + dec_dist(kind, b, c) - dec_dist(kind, a, c))


def brute_B(a, b, c) -> bool:
    ux, uy = c.x - a.x, c.y - a.y
    vx, vy = b.x - a.x, b.y - a.y
    if ux == 0 and uy == 0:
        return vx == 0 and vy == 0
    if ux * vy - uy * vx != 0:
        return False
    t = Fraction(vx, ux) if ux != 0 else Fraction(vy, uy)
    return 0 <= t <= 1


def brute_delta(kind, n, a, b, c) -> bool:
    if n == 1:  # one step of length d(a,b) reaches only its sphere
        return brute_equidistant(kind, a, c, a, b)
    return _le(dec_dist(kind, a, c), Decimal(n) * dec_dist(kind, a, b))


def brute_distinct(a, b) -> bool:
    return a != b


def brute_le(kind, a, b, c, d) -> bool:
    return _le(dec_dist(kind, a, b), dec_dist(kind, c, d))


def brute_collinear(a, b, c) -> bool:
    return (b.x - a.x) * (c.y - a.y) == (b.y - a.y) * (c.x - a.x)


def brute_parallelogram(a, b, c, d) -> bool:
    # same-vector sides expressed from the other diagonal pair
    if (c.x - b.x, c.y - b.y) != (d.x - a.x, d.y - a.y):
        return False
    area_twice = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return area_twice != 0


def brute_truth(kind: str, rel_name: str, indices, pts) -> bool:
    if rel_name == "EQUIV2":
        return brute_equiv2(kind, *pts)
    if rel_name == "PHI":
        return brute_phi0(kind, *pts)
    if rel_name == "M":
        return brute_midpoint(*pts)
    if rel_name == "ALPHA":
        return brute_alpha(indices[0], *pts)
    if rel_name == "BETA":
        return brute_beta(indices[0], *pts)
    if rel_name == "PSI":
        return brute_psi(kind, indices[0], indices[1], *pts)
    if rel_name == "GAMMA":
        return brute_gamma(kind, *pts)
    if rel_name == "B":
        return brute_B(*pts)
    if rel_name == "DELTA":
        return brute_delta(kind, indices[0], *pts)
    if rel_name == "NEQ":
        return brute_distinct(*pts)
    if rel_name == "LE":
        return brute_le(kind, *pts)
    if rel_name == "COLLINEAR":
        return brute_collinear(*pts)
    if rel_name == "PARALLELOGRAM":
        return brute_parallelogram(*pts)
    raise ValueError(rel_name)
