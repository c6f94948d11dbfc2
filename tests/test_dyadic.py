from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfindep.bigreal.dyadic import Dyadic, rational_to_dyadic, sqrt_down, sqrt_up
from cfindep.bigreal.interval import DyadicInterval


def test_canonical_form():
    assert Dyadic(4, 0) == Dyadic(1, 2)
    assert Dyadic(12, -2) == Dyadic(3, 0)
    assert Dyadic(0, 17) == Dyadic(0, 0)
    d = Dyadic(6, 3)
    assert d.man % 2 == 1 and d.man == 3 and d.exp == 4


def test_exact_arithmetic():
    a = Dyadic(3, -2)  # 0.75
    b = Dyadic(1, -1)  # 0.5
    assert (a + b).as_fraction() == Fraction(5, 4)
    assert (a - b).as_fraction() == Fraction(1, 4)
    assert (a * b).as_fraction() == Fraction(3, 8)
    assert (-a).as_fraction() == Fraction(-3, 4)


def test_comparisons():
    assert Dyadic(1, -1) < Dyadic(3, -2) < Dyadic(1, 0)
    assert Dyadic(-1, 10) < Dyadic(0)
    assert Dyadic(5, -3) == Dyadic(10, -4)


def test_round_down_up_bracket():
    x = Dyadic((1 << 100) + 12345, -100)
    lo = x.round_down(20)
    hi = x.round_up(20)
    assert lo <= x <= hi
    assert abs(lo.man).bit_length() <= 20 and abs(hi.man).bit_length() <= 21
    assert lo < hi  # inexact value strictly bracketed


def test_round_negative_directions():
    x = Dyadic(-((1 << 60) + 7), -60)
    assert x.round_down(10) <= x <= x.round_up(10)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12), st.integers(8, 96))
def test_rational_rounding_brackets(num, den, prec):
    lo = rational_to_dyadic(num, den, prec, up=False)
    hi = rational_to_dyadic(num, den, prec, up=True)
    f = Fraction(num, den)
    assert lo.as_fraction() <= f <= hi.as_fraction()
    # bracket is tight to ~one ulp
    if num != 0:
        assert (hi - lo).as_fraction() <= abs(f) * Fraction(1, 2 ** (prec - 2))


@given(st.integers(0, 10**15), st.integers(-40, 40), st.integers(10, 80))
def test_sqrt_directed(man, exp, prec):
    x = Dyadic(man, exp)
    lo, hi = sqrt_down(x, prec), sqrt_up(x, prec)
    assert (lo * lo).as_fraction() <= x.as_fraction() <= (hi * hi).as_fraction()


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        sqrt_down(Dyadic(-1), 16)


def test_float_conversion_large_mantissa():
    big = Dyadic((1 << 200) + 1, -198)
    assert 3.9 < float(big) < 4.1


def test_comparison_across_huge_exponent_gaps():
    # decided from sign and leading-bit position, without aligning mantissas
    # across the 2**70-bit gap
    big = Dyadic(1, 1 << 70)
    small = Dyadic(3, -5)
    assert big > small and small < big and -big < small and not big <= small
    assert Dyadic(-3, -5) > -big
    span = DyadicInterval(-big, big)
    point = DyadicInterval(small, small)
    assert span.contains_interval(point) and not point.contains_interval(span)
    assert span.intersects(point) and not point.intersects(DyadicInterval(big, big))
    with pytest.raises(ValueError):
        DyadicInterval(big, small)


@given(st.integers(-10**6, 10**6), st.integers(-64, 64), st.integers(-10**6, 10**6), st.integers(-64, 64))
def test_comparison_matches_fractions(m1, e1, m2, e2):
    a, b = Dyadic(m1, e1), Dyadic(m2, e2)
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
