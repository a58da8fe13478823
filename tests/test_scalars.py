import operator
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest

from equitower.scalars import (
    Rad,
    RadSum,
    ScalarError,
    ceil_sqrt,
    cmp_radical_sums,
    float_eq,
    float_le,
    format_exact,
    parse_exact,
    rational_root,
)


def test_parse_exact_accepts_ints_and_ratio_strings():
    assert parse_exact("3/4") == Fraction(3, 4)
    assert parse_exact("-7") == Fraction(-7)
    assert parse_exact(5) == Fraction(5)
    assert format_exact(Fraction(3, 4)) == "3/4"
    assert format_exact(Fraction(-7)) == "-7"


@pytest.mark.parametrize("bad", ["x", "1/0", 1.5, None, True])
def test_parse_exact_rejects_junk(bad):
    with pytest.raises(ScalarError):
        parse_exact(bad)


def test_rational_root_finds_exactly_the_rational_roots():
    assert rational_root(9, 4) == Fraction(3, 2)
    assert rational_root(18, 8) == Fraction(3, 2)  # n/d need not be in lowest terms
    assert rational_root(0, 5) == 0
    assert rational_root(2, 1) is None
    assert rational_root(9, 2) is None


def test_ceil_sqrt_is_exact_near_perfect_squares():
    assert ceil_sqrt(Fraction(0)) == 0
    assert ceil_sqrt(Fraction(1)) == 1
    assert ceil_sqrt(Fraction(2)) == 2
    assert ceil_sqrt(Fraction(4)) == 2
    assert ceil_sqrt(Fraction(10**12)) == 10**6
    assert ceil_sqrt(Fraction(10**12 + 1)) == 10**6 + 1
    assert ceil_sqrt(Fraction(1, 4)) == 1


def test_rad_folds_perfect_squares():
    r = Rad.sqrt(Fraction(9, 4))
    assert r.is_rational() and r.as_fraction() == Fraction(3, 2)
    assert repr(Rad.sqrt(2)) == "sqrt(2)"
    assert Rad(2, 2) == Rad.sqrt(8)


def test_rad_comparisons_and_sums():
    sqrt2 = Rad.sqrt(2)
    assert sqrt2 > 1
    assert sqrt2 < Fraction(3, 2)
    assert sqrt2 + sqrt2 == Rad.sqrt(8)
    two = Rad.sqrt(2) * Rad.sqrt(2)
    assert two == 2
    # sqrt(2) + sqrt(3) vs sqrt(10): 2+3+2*sqrt(6) vs 10 -> sqrt(6) vs 5/2
    assert Rad.sqrt(2) + Rad.sqrt(3) < Rad.sqrt(10)
    assert Rad.sqrt(2) + Rad.sqrt(8) == Rad.sqrt(18)
    assert (Rad.sqrt(5) + Rad.sqrt(5)) == Rad.sqrt(20)


def test_rad_rejects_negatives():
    with pytest.raises(ScalarError):
        Rad(-1, 2)
    with pytest.raises(ScalarError):
        Rad.sqrt(2) * Fraction(-1)


def test_radical_sum_comparison_matches_high_precision_decimals():
    getcontext().prec = 60
    rng = random.Random(20240917)
    for _ in range(400):
        terms = []
        for _ in range(4):
            c = Fraction(rng.randint(0, 12), rng.randint(1, 6))
            r = Fraction(rng.randint(0, 30), rng.randint(1, 6))
            terms.append(Rad(c, r))
        left, right = tuple(terms[:2]), tuple(terms[2:])
        got = cmp_radical_sums(left, right)

        def dec(side):
            total = Decimal(0)
            for t in side:
                c = Decimal(t.coeff.numerator) / Decimal(t.coeff.denominator)
                r = Decimal(t.radicand.numerator) / Decimal(t.radicand.denominator)
                total += c * r.sqrt()
            return total

        diff = dec(left) - dec(right)
        if abs(diff) < Decimal("1e-40"):
            assert got == 0
        else:
            assert got == (1 if diff > 0 else -1)


def test_radsum_collapse_merges_like_radicands():
    s = RadSum((Rad(1, 2), Rad(2, 2)))
    collapsed = s.collapse()
    assert isinstance(collapsed, Rad)
    assert collapsed == Rad(3, 2)


def test_float_tolerance_is_mixed_absolute_relative():
    assert float_eq(1.0, 1.0 + 5e-10, 1e-9)
    assert not float_eq(1.0, 1.0 + 5e-9, 1e-9)
    # relative scaling for large magnitudes
    assert float_eq(1e9, 1e9 + 0.5, 1e-9)
    assert float_le(2.0, 2.0 - 1e-12, 1e-9)
    assert not float_le(2.0, 1.0, 1e-9)


def _dec(x) -> Decimal:
    """The value of a Rad, a RadSum or a rational to the current Decimal precision."""
    if isinstance(x, RadSum):
        return sum((_dec(t) for t in x.terms), Decimal(0))
    if isinstance(x, Rad):
        return _dec(x.coeff) * _dec(x.radicand).sqrt()
    q = Fraction(x)
    return Decimal(q.numerator) / Decimal(q.denominator)


def _sign(d: Decimal) -> int:
    return 0 if abs(d) < Decimal("1e-40") else (1 if d > 0 else -1)


def _radical_strategies():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=0, max_value=40, max_denominator=12)
    # perfect squares fold; radicands of one square class make equal sums, as sqrt(2) + sqrt(8) = sqrt(18)
    radicands = st.one_of(rationals, rationals.map(lambda q: q * q), st.sampled_from((2, 8, 18, 32, 3, 12, 27)))
    rads = st.builds(Rad, st.one_of(rationals, st.integers(0, 3)), radicands)
    sides = st.lists(rads, max_size=2).map(tuple)
    radsums = sides.map(RadSum)
    numbers = st.one_of(st.integers(-5, 40), st.fractions(min_value=-10, max_value=40, max_denominator=12))
    return hypothesis, SimpleNamespace(
        rationals=rationals, radicands=radicands, rads=rads, sides=sides, radsums=radsums, numbers=numbers
    )


def test_hypothesis_radical_sums_match_60_digit_decimals():
    hypothesis, draw = _radical_strategies()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(draw.sides, draw.sides)
    def run(left, right):
        with localcontext() as ctx:
            ctx.prec = 60
            expected = _sign(sum(map(_dec, left), Decimal(0)) - sum(map(_dec, right), Decimal(0)))
        assert cmp_radical_sums(left, right) == expected
        assert cmp_radical_sums(right, left) == -expected

    run()


def test_hypothesis_equal_sums_written_two_ways_compare_equal():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(0, 6)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(small, small, small, small, st.sampled_from((2, 3, 5, 6, 7)), st.integers(1, 9))
    def run(c1, k1, c2, k2, r, s):
        # c1*sqrt(k1^2 r) + c2*sqrt(k2^2 r) = (c1 k1)*sqrt(r) + (c2 k2)*sqrt(r) = (c1 k1 + c2 k2)*sqrt(r)
        left = (Rad(c1, k1 * k1 * r), Rad(c2, k2 * k2 * r))
        for right in ((Rad(c1 * k1 + c2 * k2, r),), (Rad(c1 * k1, r), Rad(c2 * k2, r))):
            assert cmp_radical_sums(left, right) == 0 == cmp_radical_sums(right, left)
        # a rational shift breaks the tie on the side it is added to
        shifted = left[:1] + (Rad(Fraction(1, s)),)
        assert cmp_radical_sums(shifted, (left[0],)) == 1

    run()


_COMPARISONS = {
    operator.eq: lambda s: s == 0,
    operator.ne: lambda s: s != 0,
    operator.lt: lambda s: s < 0,
    operator.le: lambda s: s <= 0,
    operator.gt: lambda s: s > 0,
    operator.ge: lambda s: s >= 0,
}
_REFLECTED = {operator.eq: operator.eq, operator.ne: operator.ne, operator.lt: operator.gt,
              operator.le: operator.ge, operator.gt: operator.lt, operator.ge: operator.le}


def test_hypothesis_comparisons_agree_with_one_sign():
    hypothesis, draw = _radical_strategies()
    radicals = hypothesis.strategies.one_of(draw.rads, draw.radsums)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(radicals, hypothesis.strategies.one_of(radicals, draw.numbers))
    def run(x, y):
        with localcontext() as ctx:
            ctx.prec = 60
            sign = _sign(_dec(x) - _dec(y))
        for op, holds in _COMPARISONS.items():
            assert op(x, y) is holds(sign), (op, x, y)
            assert _REFLECTED[op](y, x) is holds(sign), (op, y, x)

    run()


def test_hypothesis_rad_plus_radsum_is_a_type_error():
    hypothesis, draw = _radical_strategies()

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(draw.rads, draw.radsums)
    def run(r, s):
        with pytest.raises(TypeError):
            r + s
        with pytest.raises(TypeError):
            s + r

    run()


def test_hypothesis_rad_folds_exactly_the_rational_roots():
    hypothesis, draw = _radical_strategies()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(draw.rationals, draw.radicands)
    def run(c, r):
        rad = Rad(c, r)
        root = rational_root(r.numerator, r.denominator)
        if c == 0 or r == 0:
            assert (rad.coeff, rad.radicand) == (0, 1)
        elif root is not None:
            assert rad.is_rational() and rad.as_fraction() == c * root
        else:
            assert (rad.coeff, rad.radicand) == (c, r) and not rad.is_rational()

    run()


def test_hypothesis_float_is_within_1e12_of_the_value():
    hypothesis, draw = _radical_strategies()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(hypothesis.strategies.one_of(draw.rads, draw.radsums))
    def run(x):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = _dec(x)
            assert abs(Decimal(float(x)) - exact) <= Decimal("1e-12") * exact

    run()


def test_equal_radicals_hash_equally():
    pairs = [
        (Rad(1, 8), Rad(2, 2)),
        (RadSum((Rad(1, 2), Rad(1, 8))), Rad(3, 2)),
        (RadSum((Rad(1, 3),)), Rad(1, 3)),
        (RadSum(()), 0),
        (Rad(3, 4), 6),
        (RadSum((Rad(1, 2), Rad(1, 3))), RadSum((Rad(Fraction(1, 2), 12), Rad(Fraction(1, 3), 18)))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert len({x, y}) == 1


def test_hypothesis_equal_values_hash_equally():
    hypothesis, draw = _radical_strategies()
    st = hypothesis.strategies
    small, factor, square_free = st.integers(0, 6), st.integers(1, 4), st.sampled_from((1, 2, 3, 5, 6, 7))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(small, factor, square_free, small, factor, square_free, st.integers(1, 3))
    def written_two_ways(c1, k1, r1, c2, k2, r2, d):
        # c*sqrt(k^2 r / d^2) = (c k / d)*sqrt(r): one value, its radicands square-free or not, in either order
        one = RadSum((Rad(c1, Fraction(k1 * k1 * r1, d * d)), Rad(c2, k2 * k2 * r2)))
        other = RadSum((Rad(c2 * k2, r2), Rad(Fraction(c1 * k1, d), r1)))
        forms = [one, other, one.collapse(), other.collapse()]
        if r1 == r2:
            forms.append(Rad(Fraction(c1 * k1, d) + c2 * k2, r1))
        if r1 == r2 == 1:
            forms.append(Fraction(c1 * k1, d) + c2 * k2)
        for x in forms:
            for y in forms:
                assert x == y and hash(x) == hash(y), (x, y)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(draw.rads, draw.radsums), st.one_of(draw.rads, draw.radsums, draw.numbers))
    def drawn(x, y):
        if x == y:
            assert hash(x) == hash(y), (x, y)

    written_two_ways()
    drawn()
