import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, from_fraction
from cfindep.reportfmt import dyadic_decimal, fraction_str, interval_payload, scalar_payload


def _parse_decimal(text: str) -> Fraction:
    text = text.strip()
    if "e" in text:
        mant, exp = text.split("e")
        return Fraction(mant.replace(".", "")) * Fraction(10) ** (
            int(exp) - (len(mant.split(".")[1]) if "." in mant else 0)
        )
    if "." in text:
        ip, fp = text.split(".")
        sign = -1 if ip.startswith("-") else 1
        return Fraction(ip) + sign * Fraction(fp or "0") / 10 ** len(fp)
    return Fraction(text)


def test_decimal_exact_small_values():
    assert dyadic_decimal(Dyadic(0)) == "0"
    assert dyadic_decimal(Dyadic(1)) == "1"
    assert dyadic_decimal(Dyadic(3, -1)) == "1.5"
    assert dyadic_decimal(Dyadic(-7, -3)) == "-0.875"
    assert _parse_decimal(dyadic_decimal(Dyadic(1, 100), 20)) != 0


def test_decimal_round_trip_accuracy():
    rng = random.Random(2024)
    for _ in range(300):
        man = rng.randint(-(2 ** 70), 2 ** 70)
        exp = rng.randint(-90, 90)
        d = Dyadic(man, exp)
        sig = rng.randint(4, 30)
        printed = _parse_decimal(dyadic_decimal(d, sig))
        exact = d.as_fraction()
        if exact == 0:
            assert printed == 0
            continue
        rel = abs(printed - exact) / abs(exact)
        assert rel <= Fraction(1, 10 ** (sig - 1))


def test_decimal_round_up_is_upper_bound():
    rng = random.Random(7)
    for _ in range(300):
        man = rng.randint(1, 2 ** 60)
        exp = rng.randint(-80, 20)
        d = Dyadic(man, exp)
        printed = _parse_decimal(dyadic_decimal(d, 4, round_up=True))
        assert printed >= d.as_fraction()


def test_interval_payload_contains_truth():
    # the decimal value +/- plus_minus must cover the whole interval
    rng = random.Random(99)
    for _ in range(200):
        a = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 6))
        w = Fraction(rng.randint(0, 10 ** 6), 10 ** 18)
        iv = from_fraction(a, 96)
        iv = DyadicInterval(iv.lo, iv.hi + Dyadic(w.numerator, -60 - rng.randint(0, 8)))
        payload = interval_payload(iv, sig=rng.randint(6, 28))
        mid = _parse_decimal(payload["value"])
        pm = _parse_decimal(payload["plus_minus"])
        assert mid - pm <= iv.lo.as_fraction()
        assert iv.hi.as_fraction() <= mid + pm


def test_scalar_payload_forms():
    p = scalar_payload(Fraction(7, 3))
    assert p["exact"] == "7/3"
    assert p["decimal"]["value"].startswith("2.333")
    assert fraction_str(Fraction(-5, 10)) == "-1/2"


def _oracle_decimal(x: Dyadic, sig: int, round_up: bool) -> str:
    """dyadic_decimal as it stood with three separate powers of ten per
    endpoint: the reference for the byte-identity test below."""
    if x.man == 0:
        return "0"
    neg = x.man < 0
    man, e = abs(x.man), x.exp

    def cmp_pow10(t):
        num, den = man, 1
        if e >= 0:
            num <<= e
        else:
            den <<= -e
        if t >= 0:
            den *= 10 ** t
        else:
            num *= 10 ** -t
        return (num > den) - (num < den)

    t = (man.bit_length() + e) * 30103 // 100000
    while cmp_pow10(t) < 0:
        t -= 1
    while cmp_pow10(t + 1) >= 0:
        t += 1
    s = sig - 1 - t
    num, den = man, 1
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    if s >= 0:
        num *= 10 ** s
    else:
        den *= 10 ** -s
    if round_up:
        digits = -((-num) // den)
    else:
        digits = (2 * num + den) // (2 * den)
    if digits >= 10 ** sig:
        digits //= 10
        t += 1
    text = str(digits).rjust(sig, "0")
    mantissa = text[0] + "." + text[1:] if sig > 1 else text
    mantissa = mantissa.rstrip("0").rstrip(".")
    if -4 <= t <= 15:
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


@st.composite
def _wide_dyadics(draw):
    # mantissas up to 2000 bits, some of them near a power of ten
    bits = draw(st.integers(1, 2000))
    man = draw(st.integers(0, (1 << bits) - 1))
    if draw(st.booleans()):
        man = 10 ** draw(st.integers(0, 600)) + draw(st.integers(-2, 2))
    return Dyadic(draw(st.sampled_from((-1, 1))) * man, draw(st.integers(-20000, 20000)))


@settings(max_examples=400, deadline=None)
@given(_wide_dyadics(), st.integers(1, 40), st.booleans())
@example(Dyadic(0), 24, False)
@example(Dyadic(1), 1, True)
@example(Dyadic(10 ** 24 - 1), 24, False)  # rounds up to the next power of ten
@example(Dyadic(999, -10), 2, True)
@example(Dyadic(5, -1), 1, False)
@example(Dyadic(625, -4), 40, True)
def test_decimal_matches_three_power_rendering(x, sig, round_up):
    assert dyadic_decimal(x, sig, round_up) == _oracle_decimal(x, sig, round_up)
