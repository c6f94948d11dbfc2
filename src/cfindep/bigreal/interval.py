"""Outward-rounded interval arithmetic over dyadic endpoints.

Every operation returns an interval that contains the exact mathematical
result of applying the operation to any points of its inputs.  Each function
that rounds takes its working precision as a required argument of at least
4 bits; there is no ambient default.  The operators ``+``, ``-`` and ``*`` on
intervals are exact (no rounding) and accept intervals, ints, Dyadics and
integral Fractions; there is no ``/`` operator.

Beyond ring operations the module provides the few directed transcendental
bounds the hypothesis checkers need (``iv_exp2``, ``iv_log2``, rational
powers) and a complex box type used by lemma verification and conjugate
enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd
from operator import index

from ..errors import DivisorContainsZero, NegativeSqrt
from .dyadic import (
    Dyadic,
    _divmod,
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


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints, lo <= hi."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

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

    def contains(self, x) -> bool:
        """lo <= x <= hi for a Dyadic, int or Fraction x."""
        return _cmp_exact(self.lo, x) <= 0 <= _cmp_exact(self.hi, x)

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

    def __float__(self) -> float:
        return float(self.midpoint())

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

    def __rsub__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else DyadicInterval(o.lo - self.hi, o.hi - self.lo)

    def __mul__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else DyadicInterval(*_products(self, o))

    __rmul__ = __mul__

    def __neg__(self):
        return iv_neg(self)


def _cmp_exact(d: Dyadic, x) -> int:
    """Sign of d - x for a Dyadic, int or Fraction x.

    Decided like ``Dyadic._cmp``: by sign, then by leading-bit position, and
    by cross-multiplication only when those tie, when the shift is bounded by
    the operand sizes; ``as_fraction`` would expand an exponent like 2**70.
    """
    if isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    if isinstance(x, int):
        x = Dyadic(x)
    if isinstance(x, Dyadic):
        return d._cmp(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")
    a, n, q = d.man, x.numerator, x.denominator
    sa, sn = (a > 0) - (a < 0), (n > 0) - (n < 0)
    if sa != sn:
        return (sa > sn) - (sa < sn)
    # |d| in [2**(la-1), 2**la) and |x| in (2**(lx-1), 2**(lx+1))
    la = d.exp + abs(a).bit_length()
    lx = abs(n).bit_length() - q.bit_length()
    if la <= lx - 1 or la >= lx + 2:
        return sa if la >= lx + 2 else -sa
    if d.exp >= 0:
        lhs, rhs = (a << d.exp) * q, n
    else:
        lhs, rhs = a * q, n << -d.exp
    return (lhs > rhs) - (lhs < rhs)


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


ZERO_IV = DyadicInterval(Dyadic(0), Dyadic(0))
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
    """Directed rounding of n * 2**e / d, d > 0, as rational_to_dyadic of the
    reduced fraction n/d scaled by 2**e.

    The rounding shift depends on the bit lengths of the reduced terms, so
    whether n/d is reduced must be known (15/9 rounds as 5/3); powers of two
    in n or d leave the rounded value unchanged.  For odd d and a shift
    s >= 0, gcd(n, d) == gcd((n * 2**s) mod d, d): when n is at least as
    long as d, the remainder of the rounding division answers that test with
    a gcd of d's length, which gcd(n, d) would reach only after a division of
    its own.  A shorter n (whose gcd with d is cheaper), an even d or s < 0
    takes gcd(n, d), and a common factor is divided out before rounding.
    """
    nb, db = n.bit_length(), d.bit_length()
    s = prec + 1 - (nb - db)
    if d & 1 and nb >= db and s >= 0:
        q, r = _divmod(n << s, d)
        g = gcd(r, d)
        if g == 1:
            return q + (up and r != 0), e - s
    else:
        g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    q, qe = _rational_pair(n, d, prec, up)
    return q, qe + e


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
# pure in (Dyadic or ints, precision) and return immutable intervals.
_POINT_CACHE_SIZE = 4096

# The log and exp series run on raw (mantissa, exponent) int pairs m * 2**e.
# They round exactly as the interval operations they stand for (iv_add,
# iv_mul, iv_square, iv_div by an integer) at `work` bits, so they give the
# same endpoints while building DyadicIntervals only for the result.  A pair
# need not be canonical: rounding to p bits depends on the value alone, and
# _pair_quotient rounds the reduced fraction, as _quotient does, whether it
# learns that the fraction is reduced from its rounding remainder or reduces
# it by the gcd first.


def _pair_add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """Exact sum of two pairs."""
    if e1 <= e2:
        return m1 + (m2 << (e2 - e1)), e1
    return (m1 << (e1 - e2)) + m2, e2


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


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _ln_mantissa(m_num: int, m_shift: int, prec: int) -> DyadicInterval:
    """ln(m) for m = m_num / 2**m_shift in [1, 2], via 2*atanh((m-1)/(m+1)).

    Each pair below is one endpoint of an interval of the series: t and its
    square t2, the partial sum and the power t**(2k+1).  All of them are
    positive, so every product and quotient takes lo with lo and hi with hi.
    """
    work = prec + 16
    num = m_num - (1 << m_shift)
    den = m_num + (1 << m_shift)
    if num == 0:
        return ZERO_IV
    if num < 0:
        raise ValueError("mantissa below 1")
    pl, ple = _rational_pair(num, den, work, False)  # power, starting at t
    ph, phe = _rational_pair(num, den, work, True)
    sl, sle = _pair_down(pl * pl, 2 * ple, work)  # t2 = t**2, as iv_square
    sh, she = _pair_up(ph * ph, 2 * phe, work)
    threshold = -(prec + 8)
    al = ale = ah = ahe = 0  # partial sum
    k = 0
    while True:
        ql, qle = _pair_quotient(pl, ple, 2 * k + 1, work, False)  # term
        qh, qhe = _pair_quotient(ph, phe, 2 * k + 1, work, True)
        al, ale = _pair_down(*_pair_add(al, ale, ql, qle), work)
        ah, ahe = _pair_up(*_pair_add(ah, ahe, qh, qhe), work)
        pl, ple = _pair_down(pl * sl, ple + sle, work)
        ph, phe = _pair_up(ph * sh, phe + she, work)
        k += 1
        if ph.bit_length() + phe <= threshold:  # power.hi < 2**threshold
            ah, ahe = _pair_up(*_pair_add(ah, ahe, ph, phe + 1), work)
            break
    # times 2; doubling keeps the bit count, so no rounding
    return DyadicInterval(Dyadic(al, ale + 1), Dyadic(ah, ahe + 1))


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _log2_point(x: Dyadic, prec: int) -> DyadicInterval:
    if x.sign() <= 0:
        raise ValueError("log2 requires a positive argument")
    if x.man == 1:
        return singleton(x.exp)  # exact power of two
    bits = x.man.bit_length()
    e = x.exp + bits - 1
    work = prec + 16
    ln_m = _ln_mantissa(x.man, bits - 1, work)
    frac = iv_div(ln_m, _ln_mantissa(2, 0, work), work)
    return iv_add(singleton(e), frac, prec)


def iv_log2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of log2 over a strictly positive interval."""
    _check_prec(prec)
    if a.lo.sign() <= 0:
        raise ValueError("log2 requires a strictly positive interval")
    return DyadicInterval(_log2_point(a.lo, prec).lo, _log2_point(a.hi, prec).hi)


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _exp2_point(x: Dyadic, prec: int) -> DyadicInterval:
    """2**x as 2**k * exp(r ln 2) with k = floor(x), summed on pairs as in
    _ln_mantissa: u = r ln 2, the partial sum and the term u**j / j!."""
    k = x.floor()
    if x.is_integer():
        return singleton(Dyadic(1, k))
    r = x - Dyadic(k)  # in (0, 1), exact
    work = prec + 16
    ln2 = _ln_mantissa(2, 0, work)
    ul, ule = _pair_down(r.man * ln2.lo.man, r.exp + ln2.lo.exp, work)  # in (0, ln 2)
    uh, uhe = _pair_up(r.man * ln2.hi.man, r.exp + ln2.hi.exp, work)
    threshold = -(prec + 8)
    al, ale, ah, ahe = 1, 0, 1, 0  # partial sum
    tl, tle, th, the = ul, ule, uh, uhe  # term
    j = 1
    while True:
        al, ale = _pair_down(*_pair_add(al, ale, tl, tle), work)
        ah, ahe = _pair_up(*_pair_add(ah, ahe, th, the), work)
        j += 1
        tl, tle = _pair_quotient(*_pair_down(tl * ul, tle + ule, work), j, work, False)
        th, the = _pair_quotient(*_pair_up(th * uh, the + uhe, work), j, work, True)
        if th.bit_length() + the <= threshold:  # term.hi < 2**threshold
            # ratio of consecutive terms < ln2/j <= 0.35 here, tail < 2*term
            ah, ahe = _pair_up(*_pair_add(ah, ahe, th, the + 1), work)
            break
    lo, hi = _pair_down(al, ale + k, prec), _pair_up(ah, ahe + k, prec)
    return DyadicInterval(Dyadic(*lo), Dyadic(*hi))


def iv_exp2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of 2**x over the interval."""
    _check_prec(prec)
    return DyadicInterval(_exp2_point(a.lo, prec).lo, _exp2_point(a.hi, prec).hi)


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


def _pow_point(v: Dyadic, gamma: Fraction, prec: int) -> DyadicInterval:
    if v.sign() < 0:
        raise ValueError("rational power requires a nonnegative base")
    if v.man == 0:
        return ZERO_IV
    exact = _exact_pow(v, gamma)
    if exact is not None:
        return singleton(exact)
    if gamma.denominator == 2:
        sq = iv_pow_int(DyadicInterval(v, v), gamma.numerator, prec + 8)
        return iv_sqrt(sq, prec)
    lg = iv_mul(_log2_point(v, prec + 8), from_fraction(gamma, prec + 8), prec + 8)
    return iv_exp2(lg, prec)


def iv_pow_frac(a: DyadicInterval, gamma: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of x**gamma for x >= 0 and rational gamma > 0 (monotone)."""
    _check_prec(prec)
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("exponent must be positive")
    return DyadicInterval(_pow_point(a.lo, gamma, prec).lo, _pow_point(a.hi, gamma, prec).hi)


# ---------------------------------------------------------------------------
# complex boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ComplexInterval:
    """Axis-aligned box re + i*im with interval components."""

    re: DyadicInterval
    im: DyadicInterval

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
