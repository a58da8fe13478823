"""Scalar backends: exact rationals (with square-root lengths) and tolerant floats.

The exact backend works in ``fractions.Fraction``.  Euclidean lengths of
rational points are generally irrational, so they are carried as ``Rad``
values ``c*sqrt(r)`` with rational ``c >= 0``, ``r >= 0``.  Every comparison
the predicate layer needs (one radical term against a sum of at most two)
is decided exactly by repeated squaring; no floating point is involved.

The float backend uses doubles with a mixed absolute/relative tolerance
``|u - v| <= tol * max(1, |u|, |v|)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rational = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class ScalarError(ValueError):
    """Malformed scalar input or a backend mix-up."""


def parse_exact(text: object) -> Fraction:
    """Parse an exact coordinate: an int, or a string ``"p/q"`` / ``"p"``."""
    if isinstance(text, bool):
        raise ScalarError(f"not an exact scalar: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"not an exact scalar: {text!r}") from exc
    raise ScalarError(f"exact backend needs 'p/q' strings or ints, got {text!r}")


def format_exact(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_eq(u: float, v: float, tol: float) -> bool:
    """Mixed-tolerance equality: scale-robust without assuming units."""
    return abs(u - v) <= tol * max(1.0, abs(u), abs(v))


def float_le(u: float, v: float, tol: float) -> bool:
    return u <= v + tol * max(1.0, abs(u), abs(v))


def is_square(q: Fraction) -> bool:
    """True when q is the square of a rational."""
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def sqrt_exact(q: Fraction) -> Fraction:
    """Rational square root of a perfect square."""
    if not is_square(q):
        raise ScalarError(f"{q} is not a perfect rational square")
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


def ceil_sqrt(q: Rational, den: int = 1) -> int:
    """Smallest integer m >= 0 with m*m >= q/den (den > 0), decided exactly."""
    n, d = q.numerator, q.denominator * den
    if n <= 0:
        return 0
    m = isqrt(n // d)
    while m * m * d < n:
        m += 1
    return m


def _cmp_frac(a: Fraction, b: Fraction) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def cmp_radical_sums(left: "tuple[Rad, ...]", right: "tuple[Rad, ...]") -> int:
    """Exact sign of (sum(left) - sum(right)); each side has at most 2 terms.

    All terms are nonnegative, so squaring is order-preserving.  One squaring
    turns a two-term side into rational + single radical; recursion bottoms
    out at rational-vs-rational.
    """
    left = tuple(t for t in left if not t.is_zero())
    right = tuple(t for t in right if not t.is_zero())
    if len(left) > 2 or len(right) > 2:
        raise ScalarError("radical comparison supports at most two terms per side")
    if not left and not right:
        return 0
    if not left:
        return -1
    if not right:
        return 1
    if len(left) == 1 and len(right) == 1:
        return _cmp_frac(left[0].squared(), right[0].squared())
    if len(left) == 2 and len(right) == 1:
        return -cmp_radical_sums(right, left)
    if len(left) == 1 and len(right) == 2:
        # sqrt(C) vs x*sqrt(A) + y*sqrt(B):  square once, isolate the cross
        # term 2xy*sqrt(AB), square again.
        c2 = left[0].squared()
        x, y = right
        lead = c2 - x.squared() - y.squared()
        cross = 4 * x.squared() * y.squared()  # (2xy)^2 * A*B
        if lead < 0:
            return -1
        return _cmp_frac(lead * lead, cross)
    # two terms on both sides: square both, reduce to (rational + radical) form
    lsq, lcross = _square_pair(left)
    rsq, rcross = _square_pair(right)
    # compare lsq + lcross vs rsq + rcross with lcross, rcross single radicals
    shift = lsq - rsq
    if shift >= 0:
        return cmp_radical_sums((Rad(shift, ONE), lcross), (rcross,))
    return cmp_radical_sums((lcross,), (Rad(-shift, ONE), rcross))


def _square_pair(pair: "tuple[Rad, Rad]") -> "tuple[Fraction, Rad]":
    a, b = pair
    rational = a.squared() + b.squared()
    cross = Rad(2 * a.coeff * b.coeff, a.radicand * b.radicand)
    return rational, cross


class Rad:
    """Exact nonnegative value ``coeff * sqrt(radicand)``.

    Perfect-square radicands fold into the coefficient, so rational values
    print and compare as plain rationals.  Sums of two Rads are supported
    through :class:`RadSum`; all comparisons are exact.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff: Rational, radicand: Rational = 1):
        c = Fraction(coeff)
        r = Fraction(radicand)
        if c < 0:
            raise ScalarError("Rad represents a nonnegative value")
        if r < 0:
            raise ScalarError("Rad radicand must be nonnegative")
        if c == 0 or r == 0:
            c, r = ZERO, ONE
        elif is_square(r):
            c, r = c * sqrt_exact(r), ONE
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", r)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Rad is immutable")

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is irrational")
        return self.coeff

    @staticmethod
    def sqrt(q: Rational) -> "Rad":
        return Rad(1, Fraction(q))

    def _coerce(self, other: object) -> "Rad | None":
        if isinstance(other, Rad):
            return other
        if isinstance(other, (int, Fraction)):
            if other < 0:
                return None  # nonnegative self always exceeds a negative rational
            return Rad(other)
        return NotImplemented  # type: ignore[return-value]

    def _cmp(self, other: object) -> "int | None":
        if isinstance(other, RadSum):
            return cmp_radical_sums((self,), other.terms)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        if o is None:
            return 1
        return cmp_radical_sums((self,), (o,))

    def __eq__(self, other: object) -> bool:
        c = self._cmp(other)
        if c is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return c == 0

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeff)
        return hash((self.coeff, self.radicand))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented or o is None:
            return NotImplemented
        return RadSum((self, o)).collapse()

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Rad):
            return Rad(self.coeff * other.coeff, self.radicand * other.radicand)
        if isinstance(other, (int, Fraction)):
            if other < 0:
                raise ScalarError("Rad supports nonnegative scaling only")
            return Rad(self.coeff * other, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.coeff) * float(self.radicand) ** 0.5

    def __repr__(self) -> str:
        if self.is_rational():
            return format_exact(self.coeff)
        if self.coeff == 1:
            return f"sqrt({format_exact(self.radicand)})"
        return f"{format_exact(self.coeff)}*sqrt({format_exact(self.radicand)})"


class RadSum:
    """Sum of at most two Rad terms; comparisons stay exact."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Rad, ...]):
        live = tuple(t for t in terms if not t.is_zero())
        if len(live) > 2:
            raise ScalarError("RadSum holds at most two radical terms")
        object.__setattr__(self, "terms", live)

    def __setattr__(self, name, value):
        raise AttributeError("RadSum is immutable")

    def collapse(self) -> "Rad | RadSum":
        if not self.terms:
            return Rad(0)
        if len(self.terms) == 1:
            return self.terms[0]
        a, b = self.terms
        if a.radicand == b.radicand:
            return Rad(a.coeff + b.coeff, a.radicand)
        return self

    def _other_terms(self, other: object) -> "tuple[Rad, ...] | None":
        if isinstance(other, RadSum):
            return other.terms
        if isinstance(other, Rad):
            return (other,)
        if isinstance(other, (int, Fraction)):
            if other < 0:
                return None
            return (Rad(other),)
        return NotImplemented  # type: ignore[return-value]

    def _cmp(self, other: object):
        terms = self._other_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        if terms is None:
            return 1
        return cmp_radical_sums(self.terms, terms)

    def __eq__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0  # type: ignore[return-value]

    def __hash__(self) -> int:
        return hash(frozenset((t.coeff, t.radicand) for t in self.terms))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __float__(self) -> float:
        return sum(float(t) for t in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(repr(t) for t in self.terms)
