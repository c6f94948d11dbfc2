import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cfindep.bigreal.dyadic import (
    Dyadic,
    _divmod,
    _rational_pair,
    rational_to_dyadic,
    sqrt_down,
    sqrt_up,
)
from cfindep.bigreal.interval import DyadicInterval, from_fraction


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


# -- exactness of the division kernel -------------------------------------


def _plain_pair(num, den, prec, up):
    """The rounding by its definition: floor or ceiling of num/den * 2**shift,
    the shift taken from the bit lengths of num and den as given."""
    if num == 0:
        return 0, 0
    shift = prec + 1 - (num.bit_length() - den.bit_length())
    v = Fraction(num, den) * Fraction(2) ** shift
    return (math.ceil(v) if up else math.floor(v)), -shift


# lengths around the recursive-division limit of 4000 bits and up to the
# sizes enclose and refine_root reach
_BITS = st.one_of(st.sampled_from((1, 2, 64, 3999, 4000, 4001, 33_000, 80_000)),
                  st.integers(1, 80_000))
_PRECS = st.one_of(st.integers(4, 160), st.sampled_from((4000, 4001, 33_000)),
                   st.integers(4, 40_000))


@st.composite
def _big_fractions(draw):
    """(num, den) with den > 0 of a drawn kind: 1, a power of two, odd, even,
    or sharing an odd factor with num; num of either sign."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def odd(bits):
        return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

    nbits, dbits = draw(_BITS), draw(_BITS)
    num = rng.getrandbits(nbits) | (1 << (nbits - 1))
    kind = draw(st.sampled_from(("one", "power of two", "odd", "even", "shared")))
    if kind == "one":
        den = 1
    elif kind == "power of two":
        den = 1 << (dbits - 1)
    elif kind == "odd":
        den = odd(dbits)
    elif kind == "even":
        den = odd(dbits) << draw(st.integers(1, 100))
    else:
        g = odd(draw(st.sampled_from((2, 30, 3000, 20_000))))
        num, den = num * g, odd(dbits) * g
    return draw(st.sampled_from((-1, 1))) * num, den


@settings(max_examples=150, deadline=None)
@given(_big_fractions(), _PRECS, st.booleans())
@example((0, 7), 64, True)
@example((15, 9), 4, False)
@example((-(1 << 80_000) + 1, 3), 33_000, True)
def test_rational_pair_matches_plain_definition(frac, prec, up):
    num, den = frac
    want = _plain_pair(num, den, prec, up)
    assert _rational_pair(num, den, prec, up) == want
    assert rational_to_dyadic(num, den, prec, up) == Dyadic(*want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 64, 3999, 4000, 4001, 4002, 9000, 33_000)),
       st.sampled_from((0, 1, 64, 3999, 4000, 4001, 4002, 9000, 70_000)),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_divmod_matches_builtin(dbits, qbits, seed, negative, exact):
    # divisors on both sides of the limit, quotients crossing it, negative
    # dividends, and dividends that the divisor divides
    rng = random.Random(seed)
    b = rng.getrandbits(dbits) | (1 << (dbits - 1))
    a = b * rng.getrandbits(qbits) if exact else rng.getrandbits(dbits + qbits)
    if negative:
        a = -a
    assert _divmod(a, b) == divmod(a, b)


def test_from_fraction_of_a_long_integer_is_fast():
    # an integer rounds to fewer bits by a shift; dividing it by the power of
    # two as a long integer took about 0.2 s
    rng = random.Random(1_000_000)
    x = rng.getrandbits(1_000_000) | 1 | (1 << 999_999)
    t0 = time.perf_counter()
    iv = from_fraction(Fraction(x), 100_000)
    assert time.perf_counter() - t0 < 0.05
    k = (x.bit_length() - 1) - (100_000 + 1)  # shift of a denominator of 1 bit
    assert iv == DyadicInterval(Dyadic(x >> k, k), Dyadic((x >> k) + 1, k))
