import math
import random
from fractions import Fraction
from functools import cache

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv

from cfindep.bigreal import interval
from cfindep.bigreal.dyadic import Dyadic, rational_to_dyadic
from cfindep.bigreal.interval import (
    ComplexInterval,
    DyadicInterval,
    from_fraction,
    iv_abs,
    iv_add,
    iv_div,
    iv_exp2,
    iv_log2,
    iv_mul,
    iv_pow_frac,
    iv_pow_int,
    iv_sqrt,
    iv_square,
    iv_sub,
    singleton,
)
from cfindep.errors import DivisorContainsZero, NegativeSqrt
from enclosing import contains


def rand_fraction(rng, lo=-1000, hi=1000):
    return Fraction(rng.randint(lo * 100, hi * 100), rng.randint(1, 997))


def test_add_examples():
    a = DyadicInterval(Dyadic(1), Dyadic(2))
    b = DyadicInterval(Dyadic(3), Dyadic(4))
    s = iv_add(a, b, 64)
    assert s.lo == Dyadic(4) and s.hi == Dyadic(6)
    z = iv_add(singleton(0), DyadicInterval(Dyadic(-1), Dyadic(1)), 64)
    assert z.lo == Dyadic(-1) and z.hi == Dyadic(1)
    q = iv_add(DyadicInterval(Dyadic(1, -2), Dyadic(1, -1)),
               DyadicInterval(Dyadic(1, -2), Dyadic(1, -1)), 64)
    assert q.lo == Dyadic(1, -1) and q.hi == Dyadic(1)


def test_mul_div_sqrt_examples():
    m = iv_mul(DyadicInterval(Dyadic(1), Dyadic(2)), DyadicInterval(Dyadic(3), Dyadic(4)), 64)
    assert m.lo == Dyadic(3) and m.hi == Dyadic(8)
    with pytest.raises(DivisorContainsZero):
        iv_div(singleton(1), DyadicInterval(Dyadic(0), Dyadic(1)), 64)
    s = iv_sqrt(singleton(4), 64)
    assert s.lo == Dyadic(2) and s.hi == Dyadic(2)
    with pytest.raises(NegativeSqrt):
        iv_sqrt(DyadicInterval(Dyadic(-1), Dyadic(1)), 64)


# Reference formulas: min/max over all four endpoint products, and over all
# four Fraction quotients.  The sign-case kernels must match them bit for bit.
def _fraction_mul(a, b, prec):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return DyadicInterval(min(products).round_down(prec), max(products).round_up(prec))


def _rule_pair(n, e, d, prec, up):
    """n * 2**e / d rounded by definition: move d's powers of two into e,
    take the shift from the bit lengths of n and of the odd rest of d as
    given (the fraction is never reduced), then floor or ceil the exact
    Fraction."""
    while d % 2 == 0:
        d, e = d // 2, e - 1
    if n == 0:
        return 0, e
    shift = prec + 1 - (abs(n).bit_length() - d.bit_length())
    v = Fraction(n, d) * Fraction(2) ** shift
    return (math.ceil(v) if up else math.floor(v)), e - shift


def _rule_quotient(x, y, prec, up):
    n, d = (x.man, y.man) if y.man > 0 else (-x.man, -y.man)
    return Dyadic(*_rule_pair(n, x.exp - y.exp, d, prec, up))


def _fraction_div(a, b, prec):
    # the endpoint pairs whose exact quotients are least and greatest; a tie
    # is between equal dyadics or zero numerators, which round alike
    pairs = [(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    lo = min(pairs, key=lambda xy: xy[0].as_fraction() / xy[1].as_fraction())
    hi = max(pairs, key=lambda xy: xy[0].as_fraction() / xy[1].as_fraction())
    return DyadicInterval(_rule_quotient(*lo, prec, False), _rule_quotient(*hi, prec, True))


@st.composite
def _dyadics(draw):
    # zeros, short and long mantissas, and odd factors shared across draws so
    # that quotients often have a common factor
    if draw(st.integers(0, 9)) == 0:
        return Dyadic(0)
    bits = draw(st.sampled_from((1, 2, 4, 8, 30, 64, 200, 1000)))
    man = draw(st.integers(0, (1 << bits) - 1)) | 1
    man *= draw(st.sampled_from((1, 3, 5, 9, 15, 27, 45, 3**20, 7 * 11 * 13)))
    return Dyadic(draw(st.sampled_from((-1, 1))) * man, draw(st.integers(-300, 300)))


@st.composite
def _intervals(draw):
    x = draw(_dyadics())
    y = draw(st.one_of(st.just(x), _dyadics()))
    return DyadicInterval(min(x, y), max(x, y))


# half the draws near the working precisions the checkers use
_PRECISIONS = st.one_of(st.integers(4, 160), st.integers(4, 4096))


@settings(max_examples=600, deadline=None)
@given(_intervals(), _intervals(), _PRECISIONS)
@example(DyadicInterval(Dyadic(-3), Dyadic(5, -1)), DyadicInterval(Dyadic(-7), Dyadic(0)), 4)
def test_mul_matches_fraction_formula(a, b, prec):
    assert iv_mul(a, b, prec) == _fraction_mul(a, b, prec)


@settings(max_examples=600, deadline=None)
@given(_intervals(), _intervals(), _PRECISIONS)
@example(singleton(15), singleton(9), 4)
@example(DyadicInterval(Dyadic(45), Dyadic(45, 3)), DyadicInterval(Dyadic(-27, 5), Dyadic(-27)), 4096)
@example(singleton(Dyadic(-15, 2)), singleton(9), 4)
@example(DyadicInterval(Dyadic(0), Dyadic(3)), DyadicInterval(Dyadic(-9), Dyadic(-1, -2)), 7)
@example(singleton(1), DyadicInterval(Dyadic(0), Dyadic(1)), 64)
def test_div_matches_fraction_formula(a, b, prec):
    if b.contains_zero():
        with pytest.raises(DivisorContainsZero):
            iv_div(a, b, prec)
    else:
        q = iv_div(a, b, prec)
        assert q == _fraction_div(a, b, prec)
        assert all(contains(q, x.as_fraction() / y.as_fraction())
                   for x in (a.lo, a.hi) for y in (b.lo, b.hi))


def _assert_on_rounding_grid(r: DyadicInterval, prec: int) -> None:
    """Each endpoint has at most prec + 2 mantissa bits, so a result that is
    not a point and reaches out to |x| >= 2^e is at least 2^(e - prec - 3)
    wide (the lemma ``enclose_value`` skips rungs by)."""
    assert r.lo.man.bit_length() <= prec + 2 and r.hi.man.bit_length() <= prec + 2
    if r.is_point():
        return
    for x in (r.hi, -r.lo):
        if x.sign() > 0:
            e = x.exp + x.man.bit_length() - 1  # 2^e <= x
            assert r.width() >= Dyadic(1, e - prec - 3)


@settings(max_examples=300, deadline=None)
@given(_intervals(), _intervals(), _PRECISIONS)
@example(singleton(1), singleton(3), 4)
@example(DyadicInterval(Dyadic(1), Dyadic(3, -1)), singleton(1), 4)
def test_div_rounds_to_a_grid(a, b, prec):
    if not b.contains_zero():
        _assert_on_rounding_grid(iv_div(a, b, prec), prec)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2 ** 5000), 2 ** 5000), st.integers(1, 2 ** 5000), _PRECISIONS)
@example(1, 3, 4)
@example(2 ** 40 - 1, 2 ** 41, 4)
def test_from_fraction_rounds_to_a_grid(num, den, prec):
    r = from_fraction(Fraction(num, den), prec)
    _assert_on_rounding_grid(r, prec)
    assert r.is_point() == (Fraction(num, den) == r.lo.as_fraction())


def test_div_keeps_the_unreduced_shift():
    # 15/9 and 5/3 round with different shifts: the endpoints carry prec+2
    # bits for the former and prec+1 for the latter, and iv_div keeps 15/9's
    for prec in (4, 53, 128, 4096):
        q = iv_div(singleton(15), singleton(9), prec)
        unreduced = DyadicInterval(
            rational_to_dyadic(15, 9, prec, up=False), rational_to_dyadic(15, 9, prec, up=True)
        )
        reduced = from_fraction(Fraction(5, 3), prec)
        assert q == unreduced and q != reduced and reduced.contains_interval(q)
        assert contains(q, Fraction(5, 3))
        assert iv_div(singleton(45), singleton(27), prec) == DyadicInterval(
            rational_to_dyadic(45, 27, prec, up=False), rational_to_dyadic(45, 27, prec, up=True)
        )


@st.composite
def _quotient_operands(draw):
    """(n, d) from 1 to 80,000 bits: d is 1, a power of two, odd, even, or
    shares an odd factor with n; n of either sign."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bits = st.one_of(st.sampled_from((1, 2, 64, 3999, 4000, 4001, 33_000, 80_000)),
                     st.integers(1, 80_000))

    def odd(k):
        return rng.getrandbits(k) | 1 | (1 << (k - 1))

    n, dbits = odd(draw(bits)) << draw(st.sampled_from((0, 0, 1, 40))), draw(bits)
    kind = draw(st.sampled_from(("one", "power of two", "odd", "even", "shared")))
    if kind == "one":
        d = 1
    elif kind == "power of two":
        d = 1 << (dbits - 1)
    elif kind == "odd":
        d = odd(dbits)
    elif kind == "even":
        d = odd(dbits) << draw(st.integers(1, 100))
    else:
        g = odd(draw(st.sampled_from((2, 30, 3000, 20_000))))
        n, d = n * g, odd(dbits) * g
    return draw(st.sampled_from((-1, 1))) * n, d


@settings(max_examples=200, deadline=None)
@given(_quotient_operands(), st.integers(-500, 500),
       st.one_of(st.integers(4, 160), st.sampled_from((4000, 4001, 33_000)), st.integers(4, 40_000)),
       st.booleans())
@example((0, 9), 3, 64, True)
@example((15, 9), 0, 4, False)
@example((45, 27), -2, 4, True)
@example((2**20 - 1, 2**9 + 1), 0, 4, True)  # rounds up to 2**(prec + 2)
def test_pair_quotient_matches_definition(operands, e, prec, up):
    # no gcd: a shared odd factor keeps its bits in the shift, and the
    # quotient is the floor or ceiling of the exact value scaled to between
    # 2**prec and 2**(prec + 2), so it carries prec+1 or prec+2 bits (a
    # rounding away from zero may reach 2**(prec + 2) itself)
    n, d = operands
    q, qe = interval._pair_quotient(n, e, d, prec, up)
    assert (q, qe) == _rule_pair(n, e, d, prec, up)
    if n == 0:
        assert q == 0
        return
    exact = Fraction(n, d) * Fraction(2) ** e
    value = Fraction(q) * Fraction(2) ** qe
    assert value >= exact if up else value <= exact
    assert abs(value - exact) < Fraction(2) ** qe
    assert 1 << prec <= abs(q) <= 1 << (prec + 2)


def test_precision_argument_validated():
    x = singleton(1)
    with pytest.raises(ValueError):
        iv_add(x, x, 0)
    with pytest.raises(ValueError):
        iv_div(x, singleton(3), 3)
    with pytest.raises(TypeError):
        iv_div(x, singleton(3))


def test_no_default_precision():
    import inspect

    from cfindep.bigreal import interval

    members = [getattr(interval, name) for name in interval.__all__]
    members += [getattr(ComplexInterval, name) for name in vars(ComplexInterval)]
    checked = []
    for f in filter(inspect.isroutine, members):
        prec = inspect.signature(f).parameters.get("prec")
        if prec is not None:
            assert prec.default is inspect.Parameter.empty, f.__qualname__
            checked.append(f.__qualname__)
    assert len(checked) == 15 and "ComplexInterval.from_rationals" in checked


def test_containment_against_rational_oracle():
    # spec invariant: every op's output contains the exact rational result
    rng = random.Random(20240801)
    for _ in range(1000):
        x = rand_fraction(rng)
        y = rand_fraction(rng)
        xi = from_fraction(x, 64)
        yi = from_fraction(y, 64)
        assert contains(iv_add(xi, yi, 64), x + y)
        assert contains(iv_sub(xi, yi, 64), x - y)
        assert contains(iv_mul(xi, yi, 64), x * y)
        if y != 0 and not yi.contains_zero():
            assert contains(iv_div(xi, yi, 64), x / y)
        assert contains(iv_square(xi, 64), x * x)
        assert contains(iv_abs(xi), abs(x))


def test_width_control_and_precision_doubling():
    # composing k ops at precision P: width <= 2^(k+2-P) * magnitude
    def chain(p):
        acc = from_fraction(Fraction(1, 3), p)
        for i in range(2, 12):
            acc = iv_add(iv_mul(acc, from_fraction(Fraction(1, i), p), p), singleton(1), p)
        return acc

    k = 2 * 10
    for p in (64, 128):
        acc = chain(p)
        bound = Fraction(2) ** (k + 2 - p) * max(1, abs(acc.hi.as_fraction()))
        assert acc.width().as_fraction() <= bound
    w64 = chain(64).width().as_fraction()
    w128 = chain(128).width().as_fraction()
    assert w128 <= w64 / 2


def test_pow_int():
    x = DyadicInterval(Dyadic(-2), Dyadic(3))
    p = iv_pow_int(x, 2, 64)
    assert contains(p, Fraction(0)) and contains(p, Fraction(9)) and contains(p, Fraction(4))
    inv = iv_pow_int(singleton(2), -2, 64)
    assert contains(inv, Fraction(1, 4))


def _mp_enclosure_check(iv, mp_value):
    lo = mpmath.mpf(iv.lo.man) * mpmath.mpf(2) ** iv.lo.exp
    hi = mpmath.mpf(iv.hi.man) * mpmath.mpf(2) ** iv.hi.exp
    assert lo <= mp_value <= hi


def test_exp2_log2_against_mpmath():
    mpmath.mp.dps = 60
    rng = random.Random(7)
    for _ in range(60):
        f = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        x = from_fraction(f, 96)
        _mp_enclosure_check(iv_log2(x, 96), mpmath.log(mpmath.mpf(f.numerator) / f.denominator, 2))
        e = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        ei = from_fraction(e, 96)
        _mp_enclosure_check(iv_exp2(ei, 96), mpmath.power(2, mpmath.mpf(e.numerator) / e.denominator))


def test_exp2_exact_integer_path():
    r = iv_exp2(singleton(4374), 64)
    assert r.is_point() and r.lo == Dyadic(1, 4374)
    lg = iv_log2(singleton(Dyadic(1, 4374)), 64)
    assert lg.is_point() and lg.lo == Dyadic(4374)


def test_pow_frac_monotone_and_exact():
    g = Fraction(1, 2)
    assert iv_pow_frac(singleton(4), g, 64).is_point()
    v = iv_pow_frac(singleton(2), g, 96)
    assert v.lo.as_fraction() ** 2 <= 2 <= v.hi.as_fraction() ** 2
    mpmath.mp.dps = 50
    _mp_enclosure_check(v, mpmath.sqrt(2))
    w = iv_pow_frac(from_fraction(Fraction(5, 1), 96), Fraction(2, 3), 96)
    _mp_enclosure_check(w, mpmath.power(5, mpmath.mpf(2) / 3))
    z = iv_pow_frac(DyadicInterval(Dyadic(0), Dyadic(1)), Fraction(1, 3), 64)
    assert z.lo == Dyadic(0)


def test_complex_interval_ops():
    z = ComplexInterval(singleton(3), singleton(4))
    assert z.abs_squared(64) == singleton(25) and contains(z.abs_interval(64), Fraction(5))
    zi = ComplexInterval(singleton(0), singleton(2))
    sq = zi.mul(zi, 64)
    assert contains(sq.re, Fraction(-4)) and contains(sq.im, Fraction(0))
    w = ComplexInterval.from_rationals(Fraction(1, 3), Fraction(-1, 5), 64).mul(z, 64)
    assert contains(w.re, Fraction(1, 1) + Fraction(4, 5)) and contains(w.im, Fraction(4, 3) - Fraction(3, 5))


def test_interval_operators_are_exact():
    x = from_fraction(Fraction(1, 3), 96)
    y = x * Dyadic(5, -3) + 1 - x * x
    one = Dyadic(1)
    assert y == DyadicInterval(x.lo * Dyadic(5, -3) + one - x.hi * x.hi,
                               x.hi * Dyadic(5, -3) + one - x.lo * x.lo)
    assert -y == DyadicInterval(-y.hi, -y.lo) and x * Fraction(3) == x * 3
    for inexact in (Fraction(2, 7), 0.5):
        with pytest.raises(TypeError):
            x * inexact
    with pytest.raises(TypeError):
        x / singleton(3)
    with pytest.raises(TypeError):
        singleton(Fraction(1, 2))  # a point is exact, never truncated


def test_exp2_log2_high_precision_fuzz():
    mpmath.mp.dps = 400
    rng = random.Random(77)
    for _ in range(25):
        f = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        x = from_fraction(f, 512)
        lg = iv_log2(x, 512)
        _mp_enclosure_check(lg, mpmath.log(mpmath.mpf(f.numerator) / f.denominator, 2))
        assert lg.width().as_fraction() < Fraction(1, 2**480)
        e = Fraction(rng.randint(-2000, 2000), rng.randint(1, 997))
        ee = from_fraction(e, 512)
        ev = iv_exp2(ee, 512)
        _mp_enclosure_check(ev, mpmath.power(2, mpmath.mpf(e.numerator) / e.denominator))


def test_sqrt_interval_high_precision():
    mpmath.mp.dps = 400
    rng = random.Random(78)
    for _ in range(25):
        f = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6))
        v = iv_sqrt(from_fraction(f, 512), 512)
        _mp_enclosure_check(v, mpmath.sqrt(mpmath.mpf(f.numerator) / f.denominator))


@st.composite
def _mantissas(draw):
    # m = m_num / 2**m_shift across [1, 2], short and long numerators
    m_shift = draw(st.sampled_from((0, 1, 2, 3, 7, 30, 64, 300)))
    return (1 << m_shift) + draw(st.integers(0, 1 << m_shift)), m_shift


@st.composite
def _fractional_dyadics(draw):
    # non-integers of either sign, |x| below 2**24
    bits = draw(st.sampled_from((1, 3, 8, 30, 100)))
    man = draw(st.integers(0, (1 << bits) - 1)) | 1
    exp = draw(st.integers(-bits - 24, min(-1, 24 - bits)))
    return Dyadic(draw(st.sampled_from((-1, 1))) * man, exp)


_SERIES_PRECISIONS = st.one_of(
    st.integers(4, 160), st.integers(4, 4096), st.sampled_from((1024, 2048, 4096))
)


# Each end of a kernel against mpmath's interval context at 4x the bits the
# end is accurate to (at least 64 more), plus the arguments' own lengths so
# that they enter exactly: the end must lie on its side of mpmath's whole
# enclosure, and within 2 units in the last place of the true value.
def _raw_dyadic(raw):
    sign, man, exp, _ = raw
    return Dyadic(-man if sign else man, exp)


def _reference(f, bits, *args):
    """mpmath's enclosure of f(*args) for Dyadic args, as a Dyadic pair."""
    old = iv.prec
    iv.prec = max(4 * bits, bits + 64) + sum(
        abs(d.man).bit_length() + max(0, d.exp) for d in args)
    try:
        y = f(*map(_iv_point, args))
    finally:
        iv.prec = old
    return tuple(map(_raw_dyadic, y._mpi_))


def _assert_end(end, up, ref, bits, slack=Dyadic(0)):
    """end is on its side of ref = (lo, hi) and within 2 units in the last
    place at `bits` bits (plus an absolute slack) of every point of ref.

    The unit is taken at the larger of |end| and the true value: an end
    rounded outward across a power of two lands on the coarser grid beyond
    it."""
    lo, hi = ref
    assert hi <= end if up else end <= lo
    err = end - lo if up else hi - end
    y = max(abs(end), min(abs(lo), abs(hi)))
    ulp = Dyadic(1, y.exp + y.man.bit_length() - bits)  # 2**(floor(log2 y) + 1 - bits)
    assert err <= ulp.scaled(1) + slack


def _check_ln_mantissa_ends(m_num, m_shift, prec):
    ends = interval._ln_mantissa_ends.__wrapped__(m_num, m_shift, prec)
    if m_num == 1 << m_shift:
        assert ends == (Dyadic(0),) * 2
        return
    work = prec + 16
    ref = _reference(iv.log, work, Dyadic(m_num, -m_shift))
    for end, up in zip(ends, (False, True)):
        _assert_end(end, up, ref, work)


def _check_exp2_ends(x, prec):
    ends = interval._exp2_ends.__wrapped__(x, prec)
    if x.is_integer():
        assert ends == (Dyadic(1, x.floor()),) * 2
        return
    ref = _reference(lambda v: iv.exp(v * iv.log(2)), prec, x)
    for end, up in zip(ends, (False, True)):
        _assert_end(end, up, ref, prec)


@settings(max_examples=40, deadline=None)
@given(_mantissas(), _SERIES_PRECISIONS)
@example((2, 0), 4)
@example((2, 0), 4096)
@example(((1 << 300) + 12345, 300), 4096)
@example((1, 0), 64)
@example((3, 1), 53)
@example((30747, 14), 4)
@example((51951, 15), 7)
def test_ln_mantissa_end_against_mpmath(m, prec):
    # accurate at the work precision, prec + 16 bits, that log2 divides at
    _check_ln_mantissa_ends(*m, prec)


@settings(max_examples=40, deadline=None)
@given(_fractional_dyadics(), _SERIES_PRECISIONS)
@example(Dyadic(1, -1), 4)
@example(Dyadic(-1, -1), 4096)
@example(Dyadic(-7, -2), 128)
@example(Dyadic(5), 64)
@example(Dyadic(23333, -15), 4)
@example(Dyadic(23333, -15), 4096)
def test_exp2_end_against_mpmath(x, prec):
    _check_exp2_ends(x, prec)


# Reference series: _ln_mantissa_ends and _exp2_ends with every step an
# interval operation, both ends at once, stopping once the upper end of the
# term falls below 2**-(prec + 8) and adding twice that end as the tail.
@cache
def _object_ln_mantissa(m_num, m_shift, prec):
    work = prec + 16
    num = m_num - (1 << m_shift)
    den = m_num + (1 << m_shift)
    if num == 0:
        return singleton(0)
    t = DyadicInterval(
        rational_to_dyadic(num, den, work, up=False),
        rational_to_dyadic(num, den, work, up=True),
    )
    t2 = iv_square(t, work)
    threshold = Dyadic(1, -(prec + 8))
    total = singleton(0)
    power = t
    k = 0
    while True:
        term = iv_div(power, singleton(2 * k + 1), work)
        total = iv_add(total, term, work)
        power = iv_mul(power, t2, work)
        k += 1
        if power.hi < threshold:
            total = iv_add(total, DyadicInterval(Dyadic(0), power.hi.scaled(1)), work)
            break
    return iv_mul(total, singleton(2), work)


def _object_exp2_point(x, prec):
    if x.is_integer():
        return singleton(Dyadic(1, x.floor()))
    k = x.floor()
    r = x - Dyadic(k)
    work = prec + 16
    u = iv_mul(DyadicInterval(r, r), _object_ln_mantissa(2, 0, work), work)
    threshold = Dyadic(1, -(prec + 8))
    total = singleton(1)
    term = u
    j = 1
    while True:
        total = iv_add(total, term, work)
        j += 1
        term = iv_div(iv_mul(term, u, work), singleton(j), work)
        if term.hi < threshold:
            total = iv_add(total, DyadicInterval(Dyadic(0), term.hi.scaled(1)), work)
            break
    return DyadicInterval(total.lo.scaled(k).round_down(prec), total.hi.scaled(k).round_up(prec))


def _assert_near_object_series(end, up, ref, bits):
    """end lies in the reference enclosure ref, or beyond it on its own side
    by at most 2 units in the last place at `bits` bits.

    ref encloses the true value and the end is within 2 units of that, so
    this holds however much looser ref is.  The unit is taken at the largest
    of |end|, |ref.lo| and |ref.hi|, which is at least the unit at the true
    value."""
    y = max(abs(end), abs(ref.lo), abs(ref.hi))
    two_units = Dyadic(1, y.exp + y.man.bit_length() + 1 - bits)
    if up:
        assert ref.lo <= end <= ref.hi + two_units
    else:
        assert ref.lo - two_units <= end <= ref.hi


@settings(max_examples=40, deadline=None)
@given(_mantissas(), _SERIES_PRECISIONS)
@example((2, 0), 4)
@example((2, 0), 4096)
@example(((1 << 300) + 12345, 300), 4096)
@example((1, 0), 64)
@example((3, 1), 53)
def test_ln_mantissa_matches_object_series(m, prec):
    ref = _object_ln_mantissa(*m, prec)
    for end, up in zip(interval._ln_mantissa_ends.__wrapped__(*m, prec), (False, True)):
        _assert_near_object_series(end, up, ref, prec + 16)


@settings(max_examples=40, deadline=None)
@given(_fractional_dyadics(), _SERIES_PRECISIONS)
@example(Dyadic(1, -1), 4)
@example(Dyadic(-1, -1), 4096)
@example(Dyadic(-7, -2), 128)
@example(Dyadic(5), 64)
def test_exp2_point_matches_object_series(x, prec):
    ref = _object_exp2_point(x, prec)
    for end, up in zip(interval._exp2_ends.__wrapped__(x, prec), (False, True)):
        _assert_near_object_series(end, up, ref, prec)


# Low-precision inputs found where the round-down end's last series term
# lies next to its stopping point: the twin-chain series that the kernels
# replaced could not certify the round-down stop there and took the round-up
# chain's stop index, and for ln(51951 / 2**15) at 7 bits a round-down stop
# of its own gave another end.  The cases keep the ids they had then.  Both
# ends now come from one floor chain and its radius: each lies on its side of
# mpmath's enclosure within 2 units in the last place, and near the reference
# series; the exp2 chain reads ln 2 once, for its lower end.
@pytest.mark.parametrize("kernel, args, bits, ref, check, ln_reads", [
    pytest.param(interval._exp2_ends, (Dyadic(23333, -15), 4), 4,
                 lambda: _object_exp2_point(Dyadic(23333, -15), 4), _check_exp2_ends,
                 [(2, 0, 20)], id="_exp2_end-args0-_exp_series-<lambda>-False"),
    pytest.param(interval._ln_mantissa_ends, (30747, 14, 4), 20,
                 lambda: _object_ln_mantissa(30747, 14, 4), _check_ln_mantissa_ends,
                 [], id="_ln_mantissa_end-args1-_atanh_series-<lambda>-False"),
    pytest.param(interval._ln_mantissa_ends, (51951, 15, 7), 23,
                 lambda: _object_ln_mantissa(51951, 15, 7), _check_ln_mantissa_ends,
                 [], id="_ln_mantissa_end-args2-_atanh_series-<lambda>-True"),
])
def test_undecided_stop_takes_the_round_up_index(monkeypatch, kernel, args, bits, ref, check,
                                                 ln_reads):
    check(*args)
    reads = []
    real = interval._ln_mantissa_ends

    def recorded(*a):
        reads.append(a)
        return real(*a)

    monkeypatch.setattr(interval, "_ln_mantissa_ends", recorded)
    for end, up in zip(kernel.__wrapped__(*args), (False, True)):
        _assert_near_object_series(end, up, ref(), bits)
    assert reads == ln_reads


_THIRD = rational_to_dyadic(1, 3, 64, up=False)


@pytest.mark.parametrize("prec", range(4, 13))
@pytest.mark.parametrize("x", [
    Dyadic(0), Dyadic(7), Dyadic(-7), Dyadic(10 ** 6),  # integral: exact powers of two
    Dyadic(10 ** 6) + _THIRD, Dyadic(-10 ** 6) + _THIRD,
    Dyadic(1, -3000), Dyadic(-3) + Dyadic(1, -3000),  # r = 2**-3000
], ids=["0", "7", "-7", "1e6", "1e6+third", "-1e6+third", "r-tiny", "-3+r-tiny"])
def test_exp2_edges(x, prec):
    _check_exp2_ends(x, prec)


@pytest.mark.parametrize("prec", range(4, 13))
@pytest.mark.parametrize("m", [(2, 0), ((1 << 5000) + 1, 5000), ((1 << 5000) - 1, 4999)],
                         ids=["2", "1+2^-5000", "2-2^-4999"])
def test_ln_mantissa_edges(m, prec):
    _check_ln_mantissa_ends(*m, prec)


@st.composite
def _positive_dyadics(draw):
    # below and above 1, and just below 1, where log2's enclosure can
    # straddle 0
    bits = draw(st.sampled_from((1, 3, 30, 100)))
    man = draw(st.integers(0, (1 << bits) - 1)) | 1
    return Dyadic(man, draw(st.integers(-bits - 24, 24)))


@settings(max_examples=40, deadline=None)
@given(_positive_dyadics(), st.integers(4, 300),
       st.sampled_from((Fraction(1, 3), Fraction(5, 7), Fraction(7, 5), Fraction(3, 10))))
@example(Dyadic((1 << 100) - 1, -100), 64, Fraction(1, 3))
@example(Dyadic(3), 4, Fraction(5, 7))
def test_log2_and_pow_ends_against_mpmath(x, prec, gamma):
    """Each end of log2 is within 2 units in the last place at prec, plus
    2**-(prec + 8) for the fraction ln(m)/ln 2 it adds to the exponent at
    prec + 16 bits; each end of x**gamma within 2 units plus the effect of
    its exponent gamma * log2(x), rounded at prec + 8 bits."""
    lg = interval._log2_ends.__wrapped__(x, prec)
    if x.man == 1:
        assert lg == (Dyadic(x.exp),) * 2  # exact
    else:
        ref = _reference(lambda v: iv.log(v) / iv.log(2), prec, x)
        for end, up in zip(lg, (False, True)):
            _assert_end(end, up, ref, prec, Dyadic(1, -(prec + 8)))
    assume(interval._exact_pow(x, gamma) is None)
    g = iv_pow_frac(singleton(x), gamma, prec)
    ref = _reference(lambda v: iv.exp(iv.log(v) * gamma.numerator / gamma.denominator), prec, x)
    # the exponent is off by at most |y| * 2**-(prec + 5) + 2**-(prec + 13),
    # which moves 2**y relatively by less than ln 2 times that; span is at
    # least gamma * |log2 x| + 1, as gamma < 2
    span = (abs(lg[0]) + abs(lg[1]) + Dyadic(1)).scaled(1)
    for end, up in zip((g.lo, g.hi), (False, True)):
        _assert_end(end, up, ref, prec, (ref[1] * span).scaled(-(prec + 4)))


_POINT_CACHES = (interval._ln_mantissa_ends, interval._log2_ends, interval._exp2_ends)


def _hits_and_misses():
    return [c.cache_info()[:2] for c in _POINT_CACHES]


def test_each_endpoint_runs_one_chain():
    """A point interval misses each kernel's cache once: both of its ends
    are the two ends of one cached pair, and each lies on its side of
    mpmath's enclosure within 2 units in the last place."""
    for c in _POINT_CACHES:
        c.cache_clear()
    x = Dyadic(5, -2)
    e = iv_exp2(singleton(x), 64)
    # (hits, misses) of ln(mantissa), log2 and exp2; exp2 reads ln 2 at 80 bits
    assert _hits_and_misses() == [(0, 1), (0, 0), (1, 1)]
    iv_exp2(DyadicInterval(Dyadic(1, -2), x), 64)
    assert _hits_and_misses() == [(1, 1), (0, 0), (2, 2)]  # only the new lower end
    g = iv_log2(singleton(Dyadic(5)), 64)
    # ln(5/4) is new, ln 2 at 80 bits is the one exp2 read
    assert _hits_and_misses() == [(2, 2), (1, 1), (2, 2)]
    _check_exp2_ends(x, 64)
    assert (e.lo, e.hi) == interval._exp2_ends(x, 64)
    ref = _reference(lambda v: iv.log(v) / iv.log(2), 64, Dyadic(5))
    _assert_end(g.lo, False, ref, 64, Dyadic(1, -72))
    _assert_end(g.hi, True, ref, 64, Dyadic(1, -72))


def test_point_caches_are_bounded():
    for f in _POINT_CACHES:
        assert f.cache_info().maxsize == 4096
    assert not hasattr(interval, "_LN2_CACHE")


# Containment against mpmath's interval context at 4x the working
# precision: the enclosure must meet mpmath's enclosure of f at each endpoint
# of the input (both functions are monotone).
def _iv_point(d):
    return iv.ldexp(iv.mpf(d.man), d.exp)


def _assert_meets(ours, lo_ref, hi_ref):
    assert (_iv_point(ours.lo) <= lo_ref.b) is True
    assert (hi_ref.a <= _iv_point(ours.hi)) is True


@st.composite
def _positive_intervals(draw):
    def positive():
        bits = draw(st.sampled_from((1, 4, 30, 200)))
        man = draw(st.integers(0, (1 << bits) - 1)) | 1
        return Dyadic(man, draw(st.integers(-bits - 60, 60)))

    x, y = positive(), positive()
    return DyadicInterval(min(x, y), max(x, y))


@settings(max_examples=40, deadline=None)
@given(_positive_intervals(), st.one_of(st.integers(4, 160), st.integers(4, 2048)))
def test_log2_against_mpmath_intervals(a, prec):
    old = iv.prec
    iv.prec = 4 * prec
    try:
        lo_ref, hi_ref = (iv.log(_iv_point(x)) / iv.log(2) for x in (a.lo, a.hi))
        _assert_meets(iv_log2(a, prec), lo_ref, hi_ref)
    finally:
        iv.prec = old


@settings(max_examples=40, deadline=None)
@given(_fractional_dyadics(), _fractional_dyadics(),
       st.one_of(st.integers(4, 160), st.integers(4, 2048)))
def test_exp2_against_mpmath_intervals(x, y, prec):
    a = DyadicInterval(min(x, y), max(x, y))
    old = iv.prec
    iv.prec = 4 * prec
    try:
        lo_ref, hi_ref = (iv.exp(_iv_point(x) * iv.log(2)) for x in (a.lo, a.hi))
        _assert_meets(iv_exp2(a, prec), lo_ref, hi_ref)
    finally:
        iv.prec = old


@settings(max_examples=40, deadline=None)
@given(_positive_intervals(), st.integers(1, 7), st.integers(1, 7),
       st.one_of(st.integers(4, 160), st.integers(4, 1024)))
def test_pow_frac_against_mpmath_intervals(a, num, den, prec):
    gamma = Fraction(num, den)
    old = iv.prec
    iv.prec = 4 * prec
    try:
        g = iv.mpf(gamma.numerator) / gamma.denominator
        lo_ref, hi_ref = (iv.exp(iv.log(_iv_point(x)) * g) for x in (a.lo, a.hi))
        _assert_meets(iv_pow_frac(a, gamma, prec), lo_ref, hi_ref)
    finally:
        iv.prec = old
