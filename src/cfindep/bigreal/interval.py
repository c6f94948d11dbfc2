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

from functools import lru_cache
from fractions import Fraction
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


_set_lo, _set_hi = DyadicInterval.lo.__set__, DyadicInterval.hi.__set__


def _cmp_exact(d: Dyadic, x) -> int:
    """Sign of d - x for a Dyadic, int or Fraction x.

    Decided like ``_pair_cmp``: by sign, then by leading-bit position, and
    by cross-multiplication only when those tie, when the shift is bounded by
    the operand sizes; ``as_fraction`` would expand an exponent like 2**70.
    """
    if isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    if isinstance(x, int):
        x = Dyadic(x)
    if isinstance(x, Dyadic):
        return _pair_cmp(d.man, d.exp, x.man, x.exp)
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
# pure in (Dyadic or ints, precision, end) and return immutable Dyadics.
_POINT_CACHE_SIZE = 4096

# The log and exp series run on raw (mantissa, exponent) int pairs m * 2**e.
# They round exactly as the interval operations they stand for (iv_add,
# iv_mul, iv_square, iv_div by an integer) at `work` bits, so they give the
# same endpoints while building a Dyadic only for the result.  A pair
# need not be canonical: rounding to p bits depends on the value alone.  A
# quotient by an integer takes its shift from the bit lengths of the
# numerator and the divisor and is never reduced, as in _pair_quotient; a
# power of two kept in the divisor adds as much to the shift as it takes
# from the quotient's exponent, so the pair is the one _pair_quotient gives.


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


# One-sided series.  Each endpoint of a log or exp bound is the partial sum
# of one chain of directed roundings: the round-up chain rounds every step
# up, the round-down chain every step down, and neither reads the other's
# values.  Both chains stop at the same index n: the first n at which the
# round-up chain's stopping pair x+_n (the term for exp, the odd power for
# ln) falls below 2**threshold.  The round-up chain sees that itself; the
# round-down chain sees only x-_n <= x+_n and certifies the stop with
# _certainly_below.


def _gap_exp(hm: int, he: int, lm: int, le: int) -> int:
    """An integer a with hi/lo - 1 < 2**a for pairs 0 < lo <= hi."""
    e0 = min(he, le)
    d = (hm << (he - e0)) - (lm << (le - e0))
    # hi - lo < 2**(len(d) + e0) and lo >= 2**(len(lm) - 1 + le)
    return d.bit_length() + e0 - lm.bit_length() + 1 - le


def _certainly_below(m: int, e: int, threshold: int, slack: int) -> bool:
    """m * 2**e * (1 + 2**slack) < 2**threshold, for m * 2**e < 2**threshold;
    False (undecided) when slack > 0.

    Lemma (the certified stop).  Let every chain quantity be positive,
    eps = 2**(1 - work), and G >= 4 - work an integer with u+/u- - 1 < 2**G
    for exp, and t+/t- - 1 < 2**G and s+/s- - 1 < 2**G (s = t**2) for ln.
    Rounding a positive value to work bits (_pair_down, _pair_up, and
    _pair_quotient, whose quotient keeps at least work + 1 bits) moves it by
    a factor in (1 - eps, 1 + eps), and (1 + eps)/(1 - eps) <= 1 + 4*eps =
    1 + 2**(3 - work).  Then
        exp:  t+_j/t-_j <= (u+/u-)**j * ((1 + eps)/(1 - eps))**(2(j - 1))
              (a product and a quotient per step),
        ln:   p+_k/p-_k <= (t+/t-) * ((s+/s-) * (1 + eps)/(1 - eps))**k,
    so by log(1 + y) <= y the logarithm Y of either ratio is at most
    2*n*2**G < 2**(len(n) + G + 1), with n = j for exp, n = k + 1 for ln and
    len the bit length.  With slack = len(n) + G + 2 <= 0, Y <= 1, so
    e**Y <= 1 + 2*Y < 1 + 2**slack: when this returns True, x+_n is below
    2**threshold and the chain stops at n.  When it returns False the step
    is undecided; the round-down chain then runs the round-up chain for its
    stop index and continues to it.  Either way every endpoint equals the
    one the interval-object series (both chains at once) gives.
    """
    if slack > 0:
        return False
    g = -slack
    return m * ((1 << g) + 1) < 1 << (threshold - e + g)


def _atanh_series(
    p: int, pe: int, s: int, se: int, twin, work: int, threshold: int, up: bool
) -> tuple[int, int, int]:
    """One directed end of the partial sum of atanh(t) = t + t**3/3 + ...

    p = t and s = t**2 are this end's pairs; twin is the round-up end's
    (p, pe, s, se), which the round-down end reads for its certified stop.
    Returns the sum pair (the round-up end adds twice the last power for the
    tail) and the stop index k.  Each step rounds the term p/(2k+1) as
    _pair_quotient does, with its shift from the bit lengths of p and 2k+1
    and no gcd, and the sum and the next power as this end's _pair_up or
    _pair_down does, all on local ints.
    """
    if not up:
        gap = max(_gap_exp(twin[0], twin[1], p, pe), _gap_exp(twin[2], twin[3], s, se), 4 - work)
    am = ae = 0
    k = stop = 0
    while True:
        # p/(2k+1) to work + 1 bits; a shift down happens only at k = 0 for
        # p = 2**(work + 2), where it is exact
        d = 2 * k + 1
        sh = work + 1 - p.bit_length() + d.bit_length()
        q, r = divmod(p << sh, d) if sh >= 0 else (p >> -sh, 0)
        q, qe = q + (up and r != 0), pe - sh
        if ae <= qe:
            am += q << (qe - ae)
        else:
            am, ae = (am << (ae - qe)) + q, qe
        if (x := am.bit_length() - work) > 0:
            am, ae = (-(-am >> x) if up else am >> x), ae + x
        p, pe = p * s, pe + se
        if (x := p.bit_length() - work) > 0:
            p, pe = (-(-p >> x) if up else p >> x), pe + x
        k += 1
        if not stop and p.bit_length() + pe <= threshold:  # power < 2**threshold
            if up:
                e = min(ae, pe + 1)
                return (*_pair_up((am << (ae - e)) + (p << (pe + 1 - e)), e, work), k)
            if _certainly_below(p, pe, threshold, (k + 1).bit_length() + gap + 2):
                stop = k
            else:
                stop = _atanh_series(*twin, None, work, threshold, True)[2]
        if k == stop:
            return am, ae, k


def _exp_series(u: int, ue: int, twin, work: int, threshold: int, up: bool) -> tuple[int, int, int]:
    """One directed end of the partial sum of exp(u) = 1 + u + u**2/2! + ...

    u = r ln 2 is this end's pair in (0, ln 2); twin is the round-up end's
    (u, ue), which the round-down end reads for its certified stop.  Returns
    the sum pair (the round-up end adds twice the last term for the tail:
    the ratio of consecutive terms is below ln2/j <= 0.35 there, so the tail
    is below twice the term) and the stop index j.  Each step rounds as
    _atanh_series does; the term's quotient by j, too, takes its shift from
    the bit lengths of the term and of j, with no gcd.
    """
    if not up:
        gap = max(_gap_exp(*twin, u, ue), 4 - work)
    am, ae = 1, 0
    tm, te = u, ue  # term
    j = 1
    stop = 0
    while True:
        if ae <= te:
            am += tm << (te - ae)
        else:
            am, ae = (am << (ae - te)) + tm, te
        if (x := am.bit_length() - work) > 0:
            am, ae = (-(-am >> x) if up else am >> x), ae + x
        j += 1
        tm, te = tm * u, te + ue
        if (x := tm.bit_length() - work) > 0:
            tm, te = (-(-tm >> x) if up else tm >> x), te + x
        # tm/j to work + 1 bits; tm has at most work bits here
        sh = work + 1 - tm.bit_length() + j.bit_length()
        q, r = divmod(tm << sh, j)
        tm, te = q + (up and r != 0), te - sh
        if not stop and tm.bit_length() + te <= threshold:  # term < 2**threshold
            if up:
                e = min(ae, te + 1)
                return (*_pair_up((am << (ae - e)) + (tm << (te + 1 - e)), e, work), j)
            if _certainly_below(tm, te, threshold, j.bit_length() + gap + 2):
                stop = j
            else:
                stop = _exp_series(*twin, None, work, threshold, True)[2]
        if j == stop:
            return am, ae, j


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _ln_mantissa_end(m_num: int, m_shift: int, prec: int, up: bool) -> Dyadic:
    """One end of ln(m) for m = m_num / 2**m_shift in [1, 2], as
    2*atanh((m-1)/(m+1)) on the chain of that end."""
    work = prec + 16
    num = m_num - (1 << m_shift)
    den = m_num + (1 << m_shift)
    if num == 0:
        return Dyadic(0)
    if num < 0:
        raise ValueError("mantissa below 1")
    ph, phe = _rational_pair(num, den, work, True)  # t
    sh, she = _pair_up(ph * ph, 2 * phe, work)  # t**2, as iv_square
    if up:
        p, s, twin = (ph, phe), (sh, she), None
    else:
        pl, ple = _rational_pair(num, den, work, False)
        p, s, twin = (pl, ple), _pair_down(pl * pl, 2 * ple, work), (ph, phe, sh, she)
    am, ae, _ = _atanh_series(*p, *s, twin, work, -(prec + 8), up)
    return Dyadic(am, ae + 1)  # times 2; doubling keeps the bit count


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _log2_end(x: Dyadic, prec: int, up: bool) -> Dyadic:
    """One end of log2(x): the exponent plus ln(mantissa)/ln 2, each end
    rounded as iv_div and iv_add round it."""
    if x.sign() <= 0:
        raise ValueError("log2 requires a positive argument")
    if x.man == 1:
        return Dyadic(x.exp)  # exact power of two
    bits = x.man.bit_length()
    work = prec + 16
    ln_m = _ln_mantissa_end(x.man, bits - 1, work, up)  # >= 0
    frac = _quotient(ln_m, _ln_mantissa_end(2, 0, work, not up), work, up)
    total = Dyadic(x.exp + bits - 1) + frac
    return total.round_up(prec) if up else total.round_down(prec)


def iv_log2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of log2 over a strictly positive interval."""
    _check_prec(prec)
    if a.lo.sign() <= 0:
        raise ValueError("log2 requires a strictly positive interval")
    return DyadicInterval(_log2_end(a.lo, prec, False), _log2_end(a.hi, prec, True))


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _exp2_end(x: Dyadic, prec: int, up: bool) -> Dyadic:
    """One end of 2**x as 2**k * exp(r ln 2) with k = floor(x)."""
    k = x.floor()
    if x.is_integer():
        return Dyadic(1, k)
    r = x - Dyadic(k)  # in (0, 1), exact
    work = prec + 16
    ln2 = _ln_mantissa_end(2, 0, work, True)
    uh = _pair_up(r.man * ln2.man, r.exp + ln2.exp, work)  # in (0, ln 2)
    if up:
        u, twin = uh, None
    else:
        ln2 = _ln_mantissa_end(2, 0, work, False)
        u, twin = _pair_down(r.man * ln2.man, r.exp + ln2.exp, work), uh
    am, ae, _ = _exp_series(*u, twin, work, -(prec + 8), up)
    return Dyadic(*(_pair_up if up else _pair_down)(am, ae + k, prec))


def iv_exp2(a: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of 2**x over the interval."""
    _check_prec(prec)
    return DyadicInterval(_exp2_end(a.lo, prec, False), _exp2_end(a.hi, prec, True))


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
    lg = _log2_end(v, prec + 8, up)
    g = from_fraction(gamma, prec + 8)
    lg = lg * (g.hi if (lg.man >= 0) == up else g.lo)  # the end _products pairs it with
    return _exp2_end(lg.round_up(prec + 8) if up else lg.round_down(prec + 8), prec, up)


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
