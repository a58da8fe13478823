"""Scalar backends: exact rationals (with square-root lengths) and tolerant floats.

The exact backend works in ``fractions.Fraction``.  Euclidean lengths of
rational points are generally irrational; ``Space.distance`` on exact l2
returns them as ``Rad`` values ``c*sqrt(r)`` with rational ``c >= 0``,
``r >= 0``, and every comparison of a ``Rad`` against a sum of at most two
is decided exactly by repeated squaring, with no floating point.  The
predicates themselves never build a ``Rad``: ``kernel`` decides them on
integers.

The float backend uses doubles with a mixed absolute/relative tolerance
``|u - v| <= tol * max(1, |u|, |v|)``.
"""

from __future__ import annotations

import operator
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


def rational_root(n: int, d: int) -> Fraction | None:
    """sqrt(n/d) for integers n >= 0, d > 0, or None when it is irrational."""
    root = isqrt(n * d)
    return Fraction(root, d) if root * root == n * d else None


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


def _terms(other: object) -> "tuple[Rad, ...] | None":
    """other as nonnegative radical terms: None for a negative rational, which
    lies below every radical value, and NotImplemented for any other type."""
    if isinstance(other, _Radical):
        return other.terms
    if isinstance(other, (int, Fraction)):
        return None if other < 0 else (Rad(other),)
    return NotImplemented  # type: ignore[return-value]


def _compare(test):
    """A rich comparison of radicals: test(sign of self - other, 0)."""

    def method(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else test(c, 0)

    return method


class _Radical:
    """A nonnegative sum of radical ``terms``, immutable and compared exactly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _cmp(self, other: object):
        terms = _terms(other)
        if terms is NotImplemented:
            return NotImplemented
        return 1 if terms is None else cmp_radical_sums(self.terms, terms)

    __eq__, __lt__, __le__ = _compare(operator.eq), _compare(operator.lt), _compare(operator.le)
    __gt__, __ge__ = _compare(operator.gt), _compare(operator.ge)

    def __float__(self) -> float:
        return sum((float(t.coeff) * float(t.radicand) ** 0.5 for t in self.terms), 0.0)

    def __hash__(self) -> int:
        """Equal values hash equally: a rational value as its Fraction, any other
        by its exact square, a rational q or q + sqrt(c) hashed as the pair (q, c)."""
        if len(self.terms) == 2:
            square, cross = _square_pair(self.terms)
            if not cross.is_rational():
                return hash((square, cross.squared()))
            square += cross.coeff
        else:
            square = sum((t.squared() for t in self.terms), ZERO)
        root = rational_root(square.numerator, square.denominator)
        return hash(square if root is None else root)


class Rad(_Radical):
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
        elif (root := rational_root(r.numerator, r.denominator)) is not None:
            c, r = c * root, ONE
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", r)

    @property
    def terms(self) -> "tuple[Rad]":
        return (self,)

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

    def __add__(self, other):
        terms = _terms(other)
        if isinstance(other, RadSum) or terms is None or terms is NotImplemented:
            return NotImplemented
        return RadSum((self,) + terms).collapse()

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

    def __repr__(self) -> str:
        if self.is_rational():
            return format_exact(self.coeff)
        if self.coeff == 1:
            return f"sqrt({format_exact(self.radicand)})"
        return f"{format_exact(self.coeff)}*sqrt({format_exact(self.radicand)})"


class RadSum(_Radical):
    """Sum of at most two Rad terms; comparisons stay exact."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Rad, ...]):
        live = tuple(t for t in terms if not t.is_zero())
        if len(live) > 2:
            raise ScalarError("RadSum holds at most two radical terms")
        object.__setattr__(self, "terms", live)

    def collapse(self) -> "Rad | RadSum":
        if not self.terms:
            return Rad(0)
        if len(self.terms) == 1:
            return self.terms[0]
        a, b = self.terms
        if a.radicand == b.radicand:
            return Rad(a.coeff + b.coeff, a.radicand)
        return self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(repr(t) for t in self.terms)
