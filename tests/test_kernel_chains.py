"""Chain-level checks of the radii of the ln and exp2 kernels.

Each kernel in ``bigreal.interval`` runs one chain of floored fixed-point
integers.  Its lower end is the chain's total rounded down, and its upper end
the total plus the radius its docstring proves, rounded up.  These tests
capture both integers before that last rounding, by wrapping ``_pair_down``
and ``_pair_up``, and check

    total <= true value * 2**f <= total + radius

against mpmath's interval context at 8 times the bits.  The last rounding
drops about 20 guard bits, so an end-to-end test sees a short radius only
when the total lands next to a point of the output grid; here a radius one
unit short of the chain's error shows.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st, target
from mpmath import iv

from cfindep.bigreal import interval
from cfindep.bigreal.dyadic import Dyadic


def _totals(kernel, *args):
    """The floor total and the total plus radius that ``kernel`` rounds
    last, and their exponent: the value is m * 2**e."""
    calls = []

    def recorded(real):
        return lambda m, e, prec: calls.append((m, e)) or real(m, e, prec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval, "_pair_down", recorded(interval._pair_down))
        mp.setattr(interval, "_pair_up", recorded(interval._pair_up))
        kernel.__wrapped__(*args)
    (lo, e), (hi, e_hi) = calls[-2:]  # exp2 may first compute ln 2
    assert e == e_hi
    return lo, hi, e


def _enclosure(f, bits, x):
    """mpmath's enclosure of f(x) for a Dyadic x, at `bits` bits plus the
    length of x, so that x enters exactly, as a Dyadic pair."""
    old = iv.prec
    iv.prec = bits + x.man.bit_length() + max(0, x.exp)
    try:
        y = f(iv.ldexp(iv.mpf(x.man), x.exp))
    finally:
        iv.prec = old
    return tuple(Dyadic(-man if sign else man, exp) for sign, man, exp, _ in y._mpi_)


def _slacks(lo, hi, e, true):
    """How far the true value lies above the floor total, and the total plus
    radius above the true value, in units 2**e; both must be >= 0."""
    below = true[0].scaled(-e) - Dyadic(lo)
    above = Dyadic(hi) - true[1].scaled(-e)
    assert below.sign() >= 0, f"floor total above the value by {-float(below)} units"
    assert above.sign() >= 0, f"radius short of the value by {-float(above)} units"
    return float(below), float(above)


def _ln_slacks(m_num, m_shift, prec):
    lo, hi, e = _totals(interval._ln_mantissa_ends, m_num, m_shift, prec)
    return _slacks(lo, hi, e, _enclosure(iv.log, 8 * (prec + 16), Dyadic(m_num, -m_shift)))


def _exp2_slacks(x, prec):
    lo, hi, e = _totals(interval._exp2_ends, x, prec)
    return _slacks(lo, hi, e, _enclosure(lambda v: iv.exp(v * iv.log(2)), 8 * prec, x))


# Inputs, drawn through int_in(a, b), an integer in [a, b]: random.randint for
# the random sweep, hypothesis for the targeted search.
def _mantissa(int_in):
    """m = m_num / 2**m_shift in (1, 2], some just above 1."""
    shift = int_in(1, 600)
    num = int_in(1, 1 << shift) if int_in(0, 3) else int_in(1, 64)
    return (1 << shift) + num, shift


def _fractional(int_in):
    """A non-integral Dyadic of up to 600 bits, |x| up to about 2**20."""
    bits = int_in(1, 600)
    frac = Dyadic(int_in(0, (1 << bits) - 1) | 1, -int_in(1, bits + 30))
    return Dyadic(int_in(-(1 << 20), 1 << 20) if int_in(0, 1) else int_in(-3, 3)) + frac


def _precision(int_in):
    """4 to 512 bits, each octave equally likely."""
    low = 1 << int_in(2, 8)
    return int_in(low, 2 * low)


def test_radii_hold_on_random_inputs():
    rng = random.Random(20170801)
    for _ in range(1500):
        _ln_slacks(*_mantissa(rng.randint), _precision(rng.randint))
        _exp2_slacks(_fractional(rng.randint), _precision(rng.randint))


def _strategy(sample):
    return st.composite(lambda draw: sample(lambda a, b: draw(st.integers(a, b))))()


@settings(max_examples=400, deadline=None)
@given(_strategy(_mantissa), _strategy(_precision))
def test_ln_radius_under_targeted_search(m, prec):
    below, above = _ln_slacks(*m, prec)
    target(-below, label="ln: value above the floor total")
    target(-above, label="ln: total plus radius above the value")


@settings(max_examples=400, deadline=None)
@given(_strategy(_fractional), _strategy(_precision))
def test_exp2_radius_under_targeted_search(x, prec):
    below, above = _exp2_slacks(x, prec)
    target(-below, label="exp2: value above the floor total")
    target(-above, label="exp2: total plus radius above the value")
