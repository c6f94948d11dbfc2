"""Outward-rounded interval arithmetic over dyadic endpoints.

Every operation returns an interval that contains the exact mathematical
result of applying the operation to any points of its inputs.  Each function
that rounds takes its working precision as a required argument of at least
4 bits; there is no ambient default.  The operators ``+``, ``*`` and ``-``
(with the interval on the left) are exact (no rounding) and accept
intervals, ints, Dyadics and integral Fractions; there is no ``/`` operator.

Beyond ring operations the module provides the few directed transcendental
bounds the hypothesis checkers need (``iv_exp2``, ``iv_log2``, rational
powers) and a complex box type used by lemma verification and conjugate
enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import index

from ..errors import DivisorContainsZero, NegativeSqrt, refuse_assignment
from .dyadic import (
    Dyadic,
    _pair_cmp,
    _rational_pair,
    rational_to_dyadic,
    sqrt_down,
    sqrt_up,
)

__all__ = [
    "DyadicInterval",
    "ComplexInterval",
    "iv_add",
    "iv_sub",
    "iv_mul",
    "iv_div",
    "iv_sqrt",
    "iv_abs",
    "iv_neg",
    "iv_square",
    "iv_pow_int",
    "iv_max",
    "iv_hull",
    "iv_exp2",
    "iv_log2",
    "iv_pow_frac",
    "from_fraction",
    "singleton",
]

MIN_PRECISION = 4  # bits; every precision argument is at least this


def _check_prec(prec: int) -> None:
    if prec < MIN_PRECISION:
        raise ValueError(f"precision {prec} is below {MIN_PRECISION} bits")


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo is not hi and _pair_cmp(lo.man, lo.exp, hi.man, hi.exp) > 0:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __eq__(self, other):
        if other.__class__ is DyadicInterval:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return DyadicInterval, (self.lo, self.hi)

    # -- queries ---------------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).scaled(-1)

    def mag(self) -> Dyadic:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> Dyadic:
        """min |x| over the interval (0 if the interval straddles 0)."""
        if self.lo.sign() <= 0 <= self.hi.sign():
            return Dyadic(0)
        return min(abs(self.lo), abs(self.hi))

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains_zero(self) -> bool:
        return self.lo.sign() <= 0 <= self.hi.sign()

    def contains_interval(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "DyadicInterval") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def certainly_lt(self, other: "DyadicInterval") -> bool:
        return self.hi < other.lo

    def certainly_gt(self, other: "DyadicInterval") -> bool:
        return self.lo > other.hi

    def certainly_ge(self, other: "DyadicInterval") -> bool:
        return self.lo >= other.hi

    def certainly_le(self, other: "DyadicInterval") -> bool:
        return self.hi <= other.lo

    def __repr__(self) -> str:
        return f"DyadicInterval({float(self.lo)!r}, {float(self.hi)!r})"

    # -- exact operators -------------------------------------------------

    def __add__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else DyadicInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else DyadicInterval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else DyadicInterval(*_products(self, o))

    __rmul__ = __mul__

    def __neg__(self):
        return iv_neg(self)


_set_lo, _set_hi = DyadicInterval.lo.__set__, DyadicInterval.hi.__set__


def _exact(x) -> DyadicInterval | None:
    """An exact operand as an interval; None for anything that would need rounding."""
    if isinstance(x, DyadicInterval):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    if isinstance(x, (int, Dyadic)):
        return singleton(x)
    return None


def singleton(x) -> DyadicInterval:
    """Exact zero-width interval from an int or Dyadic; anything else raises TypeError."""
    d = x if isinstance(x, Dyadic) else Dyadic(index(x))
    return DyadicInterval(d, d)


def from_fraction(value: Fraction, prec: int) -> DyadicInterval:
    """Tight enclosure of an exact rational at the given precision."""
    _check_prec(prec)
    value = Fraction(value)
    lo = rational_to_dyadic(value.numerator, value.denominator, prec, up=False)
    hi = rational_to_dyadic(value.numerator, value.denominator, prec, up=True)
    return DyadicInterval(lo, hi)


ONE_IV = DyadicInterval(Dyadic(1), Dyadic(1))


def _round_out(lo: Dyadic, hi: Dyadic, prec: int) -> DyadicInterval:
    return DyadicInterval(lo.round_down(prec), hi.round_up(prec))


def iv_add(a: DyadicInterval, b: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    return _round_out(a.lo + b.lo, a.hi + b.hi, prec)


def iv_sub(a: DyadicInterval, b: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    return _round_out(a.lo - b.hi, a.hi - b.lo, prec)


def iv_neg(a: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(-a.hi, -a.lo)


def iv_mul(a: DyadicInterval, b: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    return _round_out(*_products(a, b), prec)


def _products(a: DyadicInterval, b: DyadicInterval) -> tuple[Dyadic, Dyadic]:
    """Exact endpoints of the product a*b."""
    a1, a2, b1, b2 = a.lo, a.hi, b.lo, b.hi
    # sign cases: each branch picks the products that min/max of all four
    # would pick
    if a1.man >= 0:  # a >= 0
        if b1.man >= 0:
            lo, hi = a1 * b1, a2 * b2
        elif b2.man <= 0:
            lo, hi = a2 * b1, a1 * b2
        else:
            lo, hi = a2 * b1, a2 * b2
    elif a2.man <= 0:  # a <= 0
        if b1.man >= 0:
            lo, hi = a1 * b2, a2 * b1
        elif b2.man <= 0:
            lo, hi = a2 * b2, a1 * b1
        else:
            lo, hi = a1 * b2, a1 * b1
    elif b1.man >= 0:  # a straddles 0 from here on
        lo, hi = a1 * b2, a2 * b2
    elif b2.man <= 0:
        lo, hi = a2 * b1, a1 * b1
    else:
        lo, hi = min(a1 * b2, a2 * b1), max(a1 * b1, a2 * b2)
    return lo, hi


def _pair_quotient(n: int, e: int, d: int, prec: int, up: bool) -> tuple[int, int]:
    """Directed rounding of n * 2**e / d, d > 0: d's powers of two are
    shifted out into e, and n/d for the odd rest of d rounds as
    rational_to_dyadic rounds it.

    The rounding shift comes from the bit lengths of n and of that odd d as
    given; the fraction is never reduced, so 15/9 keeps its own shift and
    rounds to prec + 2 bits where 5/3 rounds to prec + 1.  Either way the
    quotient is the floor or the ceiling of the exact value scaled to
    between 2**prec and 2**(prec + 2).
    """
    t = (d & -d).bit_length() - 1
    q, qe = _rational_pair(n, d >> t, prec, up)
    return q, qe + e - t


def _quotient(x: Dyadic, y: Dyadic, prec: int, up: bool) -> Dyadic:
    """Directed rounding of x/y, y != 0."""
    n, d = (x.man, y.man) if y.man > 0 else (-x.man, -y.man)
    return Dyadic(*_pair_quotient(n, x.exp - y.exp, d, prec, up))


def iv_div(a: DyadicInterval, b: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    if b.contains_zero():
        raise DivisorContainsZero(f"divisor {b!r} contains zero")
    a1, a2, b1, b2 = a.lo, a.hi, b.lo, b.hi
    # sign cases: (numerator, divisor) of the lower and the upper endpoint
    if b1.man > 0:  # b > 0
        if a1.man >= 0:
            lo, hi = (a1, b2), (a2, b1)
        elif a2.man <= 0:
            lo, hi = (a1, b1), (a2, b2)
        else:
            lo, hi = (a1, b1), (a2, b1)
    elif a1.man >= 0:  # b < 0 from here on
        lo, hi = (a2, b2), (a1, b1)
    elif a2.man <= 0:
        lo, hi = (a2, b1), (a1, b2)
    else:
        lo, hi = (a2, b2), (a1, b2)
    return DyadicInterval(_quotient(*lo, prec, False), _quotient(*hi, prec, True))


def iv_sqrt(a: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    if a.lo.sign() < 0:
        raise NegativeSqrt(f"sqrt of {a!r}")
    return DyadicInterval(sqrt_down(a.lo, prec), sqrt_up(a.hi, prec))


def iv_abs(a: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(a.mig(), a.mag())


def iv_square(a: DyadicInterval, prec: int) -> DyadicInterval:
    _check_prec(prec)
    lo, hi = a.mig(), a.mag()
    return _round_out(lo * lo, hi * hi, prec)


def iv_pow_int(a: DyadicInterval, k: int, prec: int) -> DyadicInterval:
    _check_prec(prec)
    if k < 0:
        return iv_div(ONE_IV, iv_pow_int(a, -k, prec), prec)
    result = ONE_IV
    base = a
    while k:
        if k & 1:
            result = iv_mul(result, base, prec)
        k >>= 1
        if k:
            base = iv_square(base, prec)
    return result


def iv_max(a: DyadicInterval, b: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_hull(a: DyadicInterval, b: DyadicInterval) -> DyadicInterval:
    return DyadicInterval(min(a.lo, b.lo), max(a.hi, b.hi))


# ---------------------------------------------------------------------------
# directed exponential / logarithm bounds
# ---------------------------------------------------------------------------

# Bound on the entries of each point cache below.  The cached functions are
# pure in (Dyadic or ints, precision) and return the immutable pair (lower
# end, upper end), so a point argument runs one chain for both ends.
_POINT_CACHE_SIZE = 4096

# Directed rounding of raw (mantissa, exponent) int pairs m * 2**e, as
# Dyadic.round_down and round_up round; a pair need not be canonical, since
# rounding to p bits depends on the value alone.


def _pair_down(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded toward -inf to prec bits, as Dyadic.round_down."""
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    return m >> excess, e + excess


def _pair_up(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded toward +inf to prec bits, as Dyadic.round_up."""
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    return -((-m) >> excess), e + excess


# Argument-reduced kernels (Brent & Zimmermann, Modern Computer Arithmetic,
# ch. 4) with midpoint-radius ends (van der Hoeven, "Ball arithmetic", 2010).
# Each kernel runs one chain of fixed-point integers at a scale 2**f per
# (point, precision).  Every step of the chain takes a floor, so its total is
# at most the true value times 2**f, and the kernel's docstring proves a
# radius: the total is less than that many units below the true value.  The
# lower end is the total rounded down, the upper end the total plus the
# radius rounded up.  The number s of reduction steps and the scale are fixed
# functions of the precision: about sqrt(prec)/2 halvings for exp, and about
# sqrt(prec)/4 square roots for ln, where a math.isqrt costs several series
# steps; s >= 2 in both.

# Guard bits below the last bit of a result.  The error counts in the lemmas
# of _ln_mantissa_ends and _exp2_ends (before the squarings), about the number
# of series terms, must stay below 2**(_GUARD - 4); with about 2 sqrt(prec)
# terms that holds for any precision below 2**24 bits.  _GUARD < 31 keeps the
# error of ln 2 below one unit in _exp2_ends.
_GUARD = 20


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _ln_mantissa_ends(m_num: int, m_shift: int, prec: int) -> tuple[Dyadic, Dyadic]:
    """Both ends of ln(m) for m = m_num / 2**m_shift in [1, 2], rounded
    outward to work = prec + 16 bits.

    With R = m**(1/2**s) (s square roots) and t = (R - 1)/(R + 1),
    ln m = 2**(s + 1) * atanh(t), and the shift by s + 1 is exact.  At the
    scale 2**f, f = work + s + _GUARD + z with m - 1 >= 2**-z, the chain
    floors m, each root (math.isqrt), t, t**2, each power t**(2k + 1) and
    each term power/(2k + 1), and stops after the first zero power.  Every
    map is increasing in its inputs, so the total is at most atanh(t) 2**f.

    Radius: with n terms summed, the last at the odd index k = 2n - 1 of
    bit length b, the total is less than n + 2 + b//2 = (k + 5 + b)//2 units
    u = 2**-f below atanh(t) 2**f.  As work >= 16, s >= 2, so R <= 2**(1/4)
    and t < 1/11.  m is off by < u, each root by < u plus half the error of
    its input (sqrt is 1/2-Lipschitz on [1, 2]), so R by < 2u; t by < 2u
    (dt/dR <= 1/2, plus the division's rounding); t**2 by < (4t + 1)u < 3u/2;
    each power past t by < (3t/2 + 2t**2 + 1)u < 6u/5, so the term at index
    i >= 3 by < (1 + 6/(5i))u; and the dropped tail, past a power below
    6u/5, by < u/100.  The sum of 1/i over odd 3 <= i <= k is at most
    ln(k)/2, so the total error is below (n + 1 + (3/5) ln k + 1/100)u <
    (n + 2 + b//2)u.  The upper end is the total plus that radius, rounded
    up, so both ends are within the radius, at most (2n + 3)u, of atanh(t)
    before their last rounding.  As ln(m) >= (m - 1)/2,
    t >= (R - 1)/3 >= ln(m)/2**(s + 2) >= 2**-(z + s + 3), so that is a
    relative error below (2n + 3) 2**(3 - work - _GUARD) <= 2**-(work + 1).
    The last rounding adds less than one unit in the last place of the end,
    so each end is within 2 units in the last place at work bits of the
    larger of itself and ln m.
    """
    num = m_num - (1 << m_shift)
    if num == 0:
        return (Dyadic(0),) * 2
    if num < 0:
        raise ValueError("mantissa below 1")
    work = prec + 16
    s = isqrt(work) // 4 + 1
    f = work + s + _GUARD + m_shift + 1 - num.bit_length()
    sh = f - m_shift
    r = m_num << sh if sh >= 0 else m_num >> -sh
    one = 1 << f
    for _ in range(s):
        r = isqrt(r << f)
    t = ((r - one) << f) // (r + one)
    t2 = t * t >> f
    total = power = t
    k = 1
    while power:
        power = power * t2 >> f
        k += 2
        total += power // k
    e = s + 1 - f
    radius = (k + 5 + k.bit_length()) // 2
    return Dyadic(*_pair_down(total, e, work)), Dyadic(*_pair_up(total + radius, e, work))


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _log2_ends(x: Dyadic, prec: int) -> tuple[Dyadic, Dyadic]:
    """Both ends of log2(x): the exponent plus ln(mantissa)/ln 2, each end
    rounded as iv_div and iv_add round it."""
    if x.sign() <= 0:
        raise ValueError("log2 requires a positive argument")
    if x.man == 1:
        return (Dyadic(x.exp),) * 2  # a power of two, exact
    bits = x.man.bit_length()
    work = prec + 16
    ln_m, ln2 = _ln_mantissa_ends(x.man, bits - 1, work), _ln_mantissa_ends(2, 0, work)
    k = Dyadic(x.exp + bits - 1)
    return ((k + _quotient(ln_m[0], ln2[1], work, False)).round_down(prec),
            (k + _quotient(ln_m[1], ln2[0], work, True)).round_up(prec))


def iv_log2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of log2 over a strictly positive interval."""
    _check_prec(prec)
    if a.lo.sign() <= 0:
        raise ValueError("log2 requires a strictly positive interval")
    return DyadicInterval(_log2_ends(a.lo, prec)[0], _log2_ends(a.hi, prec)[1])


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _exp2_ends(x: Dyadic, prec: int) -> tuple[Dyadic, Dyadic]:
    """Both ends of 2**x = 2**k * exp(v)**(2**s), with k = floor(x) and
    v = (x - k) ln 2 / 2**s, rounded outward to prec bits.

    At the scale 2**w, w = prec + s + _GUARD, the chain floors v (from the
    lower end of ln 2), each Taylor term (the one before times v / j) and
    each of the s squarings, and stops after the first zero term.  Every map
    is increasing, so the total is at most 2**(x - k) 2**w.

    Radius: with n terms past the 1 summed, the total is less than
    (9n + 10) 2**(s - 2) units u = 2**-w below 2**(x - k) 2**w.  As
    prec >= 4, s >= 2, so v < ln(2)/4 < 0.18.  v is off by < (1 + 2**-11)u:
    one rounding, and ln 2's error (at most 2**-(prec + 31), 2 units in the
    last place at prec + 32 bits) times (x - k) 2**(w - s) <
    2**(prec + _GUARD); so exp(v) is off by < 1.19u.  The first term, v, is
    exact, each later term j is off by < (1 + 0.18 (9/8)/j)u < 9u/8, and the
    dropped tail, past a term below 9u/8, by < u/10.  So the sum is off by
    < ((9n + 10)/8 - 1)u, relatively too as exp(v) >= 1.  Each squaring at
    most doubles a relative error and adds u, so the s squarings leave it
    below 2**s (9n + 10)/8 u, and 2**(x - k) < 2 makes the error less than
    the radius.  The upper end is the total plus the radius, rounded up, so
    both ends are within (9n + 10) 2**-(prec + _GUARD + 2) <= 2**-prec of
    2**(x - k) relatively before their last rounding.  That rounding to prec
    bits adds less than one unit in the last place of the end, so each end
    is within 2 units in the last place at prec bits of the larger of itself
    and 2**x.
    """
    k = x.floor()
    if x.is_integer():
        return (Dyadic(1, k),) * 2
    r = x - Dyadic(k)  # in (0, 1), exact
    s = isqrt(prec) // 2 + 1
    w = prec + s + _GUARD
    ln2 = _ln_mantissa_ends(2, 0, prec + 16)[0]
    m, e = r.man * ln2.man, r.exp + ln2.exp + w - s  # v * 2**w = m * 2**e
    v = m << e if e >= 0 else m >> -e
    total = term = 1 << w
    j = 0
    while term:
        j += 1
        term = (term * v >> w) // j
        total += term
    for _ in range(s):
        total = total * total >> w
    radius = (9 * j + 10) << (s - 2)
    return Dyadic(*_pair_down(total, k - w, prec)), Dyadic(*_pair_up(total + radius, k - w, prec))


def iv_exp2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of 2**x over the interval."""
    _check_prec(prec)
    return DyadicInterval(_exp2_ends(a.lo, prec)[0], _exp2_ends(a.hi, prec)[1])


def _introot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_pow(v: Dyadic, gamma: Fraction) -> Dyadic | None:
    """v**gamma when it happens to be dyadic, else None."""
    u, w = gamma.numerator, gamma.denominator
    if v.man == 0:
        return Dyadic(0)
    if v.exp % w:
        return None
    r = _introot(v.man, w)
    if r ** w != v.man:
        return None
    root = Dyadic(r, v.exp // w)
    out = Dyadic(1)
    for _ in range(u):
        out = out * root
    return out


def _pow_end(v: Dyadic, gamma: Fraction, prec: int, up: bool) -> Dyadic:
    """One end of v**gamma, as the matching end of iv_exp2 over
    iv_mul(log2(v), gamma): gamma > 0, so each end of the product reads the
    same end of log2(v)."""
    if v.sign() < 0:
        raise ValueError("rational power requires a nonnegative base")
    if v.man == 0:
        return v
    exact = _exact_pow(v, gamma)
    if exact is not None:
        return exact
    if gamma.denominator == 2:
        sq = iv_pow_int(DyadicInterval(v, v), gamma.numerator, prec + 8)
        return sqrt_up(sq.hi, prec) if up else sqrt_down(sq.lo, prec)
    lg = _log2_ends(v, prec + 8)[up]
    g = from_fraction(gamma, prec + 8)
    lg = lg * (g.hi if (lg.man >= 0) == up else g.lo)  # the end _products pairs it with
    return _exp2_ends(lg.round_up(prec + 8) if up else lg.round_down(prec + 8), prec)[up]


def iv_pow_frac(a: DyadicInterval, gamma: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of x**gamma for x >= 0 and rational gamma > 0 (monotone)."""
    _check_prec(prec)
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("exponent must be positive")
    return DyadicInterval(_pow_end(a.lo, gamma, prec, False), _pow_end(a.hi, gamma, prec, True))


# ---------------------------------------------------------------------------
# complex boxes
# ---------------------------------------------------------------------------

class ComplexInterval:
    """Axis-aligned box re + i*im with interval components."""

    __slots__ = ("re", "im")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, re: DyadicInterval, im: DyadicInterval):
        _set_re(self, re)
        _set_im(self, im)

    def __reduce__(self):
        return ComplexInterval, (self.re, self.im)

    @classmethod
    def from_rationals(cls, re: Fraction, im: Fraction, prec: int) -> "ComplexInterval":
        return cls(from_fraction(Fraction(re), prec), from_fraction(Fraction(im), prec))

    def mul(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        re = iv_sub(iv_mul(self.re, other.re, prec), iv_mul(self.im, other.im, prec), prec)
        im = iv_add(iv_mul(self.re, other.im, prec), iv_mul(self.im, other.re, prec), prec)
        return ComplexInterval(re, im)

    def abs_squared(self, prec: int) -> DyadicInterval:
        return iv_add(iv_square(self.re, prec), iv_square(self.im, prec), prec)

    def abs_interval(self, prec: int) -> DyadicInterval:
        return iv_sqrt(self.abs_squared(prec), prec)


_set_re, _set_im = ComplexInterval.re.__set__, ComplexInterval.im.__set__
