"""Deterministic report serialization.

All numeric quantities are emitted as decimal strings with an explicit
plus_minus error-bound field; binary floats never appear in reports.  The
rendering is pure integer arithmetic, so identical inputs yield identical
bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .bigreal.dyadic import Dyadic
from .bigreal.interval import DyadicInterval, from_fraction
from .errors import DecimalTooLong
from .numfield import FieldElement

__all__ = [
    "dyadic_decimal",
    "interval_payload",
    "fraction_str",
    "scalar_payload",
    "dumps_report",
]

_SIG_DEFAULT = 24


@lru_cache(maxsize=256)
def _pow10(k: int) -> int:
    return 10 ** k


def dyadic_decimal(x: Dyadic, sig: int = _SIG_DEFAULT, round_up: bool = False) -> str:
    """Decimal rendering of a dyadic with ``sig`` significant digits.

    Rounding is half-up by default, or directed away from zero when
    ``round_up`` (used for error bounds, which must never shrink).
    """
    if x.man == 0:
        return "0"
    neg = x.man < 0
    man, e = abs(x.man), x.exp
    num, den = (man << e, 1) if e >= 0 else (man, 1 << -e)
    # decimal exponent t with 10^t <= |x| < 10^(t+1), and p = 10^|t|: one
    # power, moved to 10^|t -+ 1| by an exact *10 or //10
    t = (man.bit_length() + e) * 30103 // 100000
    p = 10 ** abs(t)
    while _cmp_pow10(num, den, t, p) < 0:
        t, p = t - 1, p * 10 if t <= 0 else p // 10
    while _cmp_pow10(num, den, t + 1, p // 10 if t < 0 else p * 10) >= 0:
        t, p = t + 1, p // 10 if t < 0 else p * 10
    # |x| * 10^(sig-1-t) as num/den, with 10^-t = p or 1/p
    num *= _pow10(sig - 1)
    if t >= 0:
        den *= p
    else:
        num *= p
    if round_up:
        digits = -((-num) // den)
    else:
        digits = (2 * num + den) // (2 * den)
    if digits >= _pow10(sig):
        digits //= 10
        t += 1
    text = str(digits).rjust(sig, "0")
    mantissa = text[0] + "." + text[1:] if sig > 1 else text
    mantissa = mantissa.rstrip("0").rstrip(".")
    if -4 <= t <= 15:
        # positional form
        raw = text
        if t >= 0:
            ip = raw[: t + 1] if t + 1 <= len(raw) else raw + "0" * (t + 1 - len(raw))
            fp = raw[t + 1 :] if t + 1 < len(raw) else ""
        else:
            ip = "0"
            fp = "0" * (-t - 1) + raw
        out = ip + ("." + fp if fp else "")
        out = out.rstrip("0").rstrip(".") if "." in out else out
        return ("-" if neg else "") + out
    return ("-" if neg else "") + mantissa + f"e{'+' if t >= 0 else '-'}{abs(t)}"


def _cmp_pow10(num: int, den: int, t: int, p: int) -> int:
    """Compare num/den against 10^t (both positive), given p = 10^|t|."""
    if t >= 0:
        den *= p
    else:
        num *= p
    return (num > den) - (num < den)


def interval_payload(iv: DyadicInterval, sig: int = _SIG_DEFAULT) -> dict:
    """Midpoint-with-error rendering of an interval."""
    mid = iv.midpoint()
    half = iv.width().scaled(-1)
    # printing error: one unit in the last printed digit of the midpoint
    print_slack = Dyadic(0)
    if mid.man != 0:
        t = (abs(mid.man).bit_length() + mid.exp) * 30103 // 100000
        # 10^(t - sig + 1) <= 2^(ceil((t - sig + 1) * log2(10)))
        bits = ((t - sig + 1) * 100000 + 30102) // 30103 if t - sig + 1 >= 0 else -(
            (-(t - sig + 1)) * 100000 // 30103
        )
        print_slack = Dyadic(1, bits + 2)
    pm = half + print_slack
    return {
        "value": dyadic_decimal(mid, sig),
        "plus_minus": dyadic_decimal(pm, 3, round_up=True) if pm.man else "0",
    }


def fraction_str(fr) -> str:
    """The exact string "num/den"; DecimalTooLong, which gives the bit sizes,
    when a term has more digits than int-to-str conversion allows."""
    fr = Fraction(fr)
    try:
        return f"{fr.numerator}/{fr.denominator}"
    except ValueError:
        raise DecimalTooLong(
            f"a {fr.numerator.bit_length()}-bit / {fr.denominator.bit_length()}-bit rational "
            "has more digits than Python's int-to-str conversion allows") from None


def scalar_payload(x, sig: int = _SIG_DEFAULT) -> dict:
    """Exact serialization of a scalar, plus a decimal approximation."""
    if isinstance(x, FieldElement):
        return {
            "coords": [fraction_str(c) for c in x.coords],
            "decimal": interval_payload(x.enclosure(96), sig),
        }
    fr = Fraction(x)
    bits = max(96, fr.numerator.bit_length() - fr.denominator.bit_length() + 64)
    return {"exact": fraction_str(fr), "decimal": interval_payload(from_fraction(fr, bits), sig)}


def dumps_report(report: dict) -> str:
    """Canonical JSON bytes for a report dict."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
