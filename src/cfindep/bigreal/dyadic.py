"""Exact dyadic rationals m * 2**e with directed rounding.

Dyadics are the endpoint type of every interval in the library.  Addition,
subtraction and multiplication are exact; anything inexact (division, square
roots, transcendental bounds) lives at the interval layer and rounds outward
through the helpers here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import refuse_assignment

__all__ = [
    "Dyadic",
    "rational_to_dyadic",
    "sqrt_down",
    "sqrt_up",
]


def _split_twos(man: int) -> tuple[int, int]:
    # largest s with 2^s | man, for man != 0
    s = (man & -man).bit_length() - 1
    return man >> s, s


class Dyadic:
    """Canonical dyadic rational: ``man`` odd or zero, zero has ``exp == 0``."""

    __slots__ = ("man", "exp")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, man: int = 0, exp: int = 0):
        if not man:
            exp = 0
        elif not man & 1:
            man, s = _split_twos(man)
            exp += s
        _set_man(self, man)
        _set_exp(self, exp)

    def __eq__(self, other):
        if other.__class__ is Dyadic:
            return self.man == other.man and self.exp == other.exp
        return NotImplemented

    def __hash__(self):
        return hash((self.man, self.exp))

    def __reduce__(self):
        return Dyadic, (self.man, self.exp)

    # -- constructors / conversions ------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def __float__(self) -> float:
        man, exp = self.man, self.exp
        bits = abs(man).bit_length()
        if bits > 53:
            man >>= bits - 53
            exp += bits - 53
        try:
            return math.ldexp(man, exp)
        except OverflowError:
            # magnitude only matters for display; clamp
            return math.inf if man > 0 else -math.inf

    # -- structure -------------------------------------------------------

    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    def is_integer(self) -> bool:
        return self.exp >= 0

    def floor(self) -> int:
        if self.exp >= 0:
            return self.man << self.exp
        return self.man >> -self.exp

    # -- exact arithmetic -------------------------------------------------

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        e = min(self.exp, other.exp)
        return Dyadic((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        e = min(self.exp, other.exp)
        return Dyadic((self.man << (self.exp - e)) - (other.man << (other.exp - e)), e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def scaled(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        if self.man == 0:
            return self
        return Dyadic(self.man, self.exp + k)

    # -- comparisons (exact) ----------------------------------------------

    def __lt__(self, other: "Dyadic") -> bool:
        return _pair_cmp(self.man, self.exp, other.man, other.exp) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return _pair_cmp(self.man, self.exp, other.man, other.exp) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return _pair_cmp(self.man, self.exp, other.man, other.exp) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return _pair_cmp(self.man, self.exp, other.man, other.exp) >= 0

    # __eq__/__hash__ on the fields agree with _pair_cmp because the
    # representation is canonical.

    # -- directed rounding --------------------------------------------------

    def round_down(self, prec: int) -> "Dyadic":
        """Largest dyadic with at most ``prec`` mantissa bits that is <= self."""
        excess = abs(self.man).bit_length() - prec
        if excess <= 0:
            return self
        return Dyadic(self.man >> excess, self.exp + excess)  # >> floors

    def round_up(self, prec: int) -> "Dyadic":
        excess = abs(self.man).bit_length() - prec
        if excess <= 0:
            return self
        return Dyadic(-((-self.man) >> excess), self.exp + excess)

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"


_set_man, _set_exp = Dyadic.man.__set__, Dyadic.exp.__set__


def _pair_cmp(a: int, ae: int, b: int, be: int) -> int:
    """Sign of a * 2**ae - b * 2**be.

    Decided by sign, then by the position of the leading bit; the mantissas
    are aligned only when both tie, when the exponents differ by less than
    the mantissa lengths, so the shift stays small.
    """
    if not a or not b or (a < 0) != (b < 0):
        return (a > b) - (a < b)
    la, lb = ae + a.bit_length(), be + b.bit_length()
    if la != lb:
        return 1 if (la > lb) == (a > 0) else -1
    e = min(ae, be)
    d = (a << (ae - e)) - (b << (be - e))
    return (d > 0) - (d < 0)


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def rational_to_dyadic(num: int, den: int, prec: int, up: bool) -> Dyadic:
    """Directed rounding of num/den to at most ``prec`` significant bits.

    ``den`` must be positive.  ``up=False`` rounds toward -inf, ``up=True``
    toward +inf.  Exact when num/den happens to be dyadic and fits.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    return Dyadic(*_rational_pair(num, den, prec, up))


def _rational_pair(num: int, den: int, prec: int, up: bool) -> tuple[int, int]:
    """rational_to_dyadic as a raw (mantissa, exponent) pair; ``den > 0``."""
    if num == 0:
        return 0, 0
    # scale so that the integer quotient carries prec+1 bits
    shift = prec + 1 - (num.bit_length() - den.bit_length())
    if shift >= 0:
        n = num << shift
    else:
        # floor(n / (d * 2**k)) == floor(floor(n / 2**k) / d), and likewise
        # for ceilings, so the power of two is divided out by a shift
        n = -((-num) >> -shift) if up else num >> -shift
    q, r = _divmod(n, den)
    return q + (up and r != 0), -shift


# Up to this many bits of divisor or quotient the builtin division is at
# least as fast as the recursive one; CPython 3.12's own recursive division
# uses the same base case.
_DIV_LIMIT = 4000


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0, recursive (Burnikel-Ziegler) on large operands.

    Python 3.11 divides by schoolbook, in time proportional to the product of
    the divisor and quotient lengths; the recursive division spends most of
    its time in Karatsuba multiplications instead.
    """
    n = b.bit_length()
    if n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    if a < 0:
        # ~a == -a - 1 >= 0, and a == b * ~q + (b + ~r)
        q, r = _divmod(~a, b)
        return ~q, b + ~r
    return _divmod_digits(0, a, b, n, -(-a.bit_length() // n))


def _divmod_digits(r: int, a: int, b: int, n: int, k: int) -> tuple[int, int]:
    """divmod(r * 2**(k*n) + a, b) for 0 <= r < b, 0 <= a < 2**(k*n), k >= 1,
    and b of n bits: long division in base 2**n, each digit by _div2n1n,
    the digit string split in halves so that every shift stays balanced."""
    if k == 1:
        return _div2n1n((r << n) + a, b, n)
    lo_bits = (k >> 1) * n
    q_hi, r = _divmod_digits(r, a >> lo_bits, b, n, k - (k >> 1))
    q_lo, r = _divmod_digits(r, a & ((1 << lo_bits) - 1), b, n, k >> 1)
    return (q_hi << lo_bits) | q_lo, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    odd = n & 1
    if odd:  # make n even; the quotient is unchanged, the remainder doubles
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    # two digits of base 2**h, each from three digits of a by two of b
    q1, r = _div3n2n(a >> n, (a >> h) & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return (q1 << h) | q2, r >> odd


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 * 2**h + a3, b) for b == b1 * 2**h + b2 of 2h bits, b1 of
    h bits, a3 < 2**h and a12 < b: estimate the digit from b1 alone, then
    correct it, at most twice, by the term of b2."""
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = ((r << h) | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _sqrt(x: Dyadic, prec: int, up: bool) -> Dyadic:
    """sqrt(x) rounded down or up to prec + 1 bits.  Requires x >= 0."""
    if x.man < 0:
        raise ValueError("sqrt of negative dyadic")
    if x.man == 0:
        return ZERO
    # work with v = man * 2^exp; force an even exponent 2t and enough bits
    man, exp = x.man, x.exp
    extra = max(0, 2 * prec + 2 - man.bit_length())
    if (exp - extra) % 2:
        extra += 1
    man <<= extra
    exp -= extra
    r = math.isqrt(man)  # r^2 <= man
    if up:
        if r * r < man:
            r += 1
        return Dyadic(r, exp // 2).round_up(prec + 1)
    return Dyadic(r, exp // 2).round_down(prec + 1)


def sqrt_down(x: Dyadic, prec: int) -> Dyadic:
    """Largest dyadic with ~prec bits that is <= sqrt(x).  Requires x >= 0."""
    return _sqrt(x, prec, up=False)


def sqrt_up(x: Dyadic, prec: int) -> Dyadic:
    """Smallest dyadic with ~prec bits that is >= sqrt(x).  Requires x >= 0."""
    return _sqrt(x, prec, up=True)
