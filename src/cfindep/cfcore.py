"""Continued-fraction engine over exact scalars.

Scalars are a closed union: int/Fraction or FieldElement.  ``scalar`` is
the one place that reads a scalar's type: it returns the record that says
how to enclose, sign, house and embed it, and refuses every other type.  Recurrences and the determinant
identity are exact whenever the scalars are; value enclosures are rigorous
dyadic intervals obtained from consecutive convergents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .bigreal.dyadic import Dyadic
from .bigreal.interval import (
    DyadicInterval,
    from_fraction,
    iv_div,
    iv_hull,
    iv_mul,
    singleton,
)
from .errors import PrecisionInsufficient, QuotientBelowOne, TailContainsZero, refuse_assignment
from .numfield import FieldElement, embeddings, house, is_algebraic_integer, sigma_eval

__all__ = [
    "ConvergentState",
    "CFValueEnclosure",
    "GaussianRational",
    "initial_state",
    "advance",
    "run_recurrence",
    "enclose_value",
    "complex_cf_eval_exact",
    "gaussian_cf",
    "scalar_enclosure",
    "scalar_sign",
    "scalar_is_zero",
    "determinant_value",
]


# -- scalar table ---------------------------------------------------------------

class _Scalar:
    """How one scalar type is read; each callable takes the value x first,
    and a precision for a rounded answer.  A rational rounds by
    ``from_fraction`` and a field element by ``numfield``'s own rule (a
    rational one at prec + 8), so neither is ever converted to the other.
    ``sign`` is exact, and ``key`` is equal for equal values, across fields
    too."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, enclosure: Callable, sign: Callable, inverse_house: Callable,
                 re_parts: Callable, house: Callable, is_integral: Callable, key: Callable,
                 field: Callable):
        self.__dict__.update(enclosure=enclosure, sign=sign, inverse_house=inverse_house,
                             re_parts=re_parts, house=house, is_integral=is_integral, key=key,
                             field=field)


def _field_re_parts(x: FieldElement, prec: int) -> list[DyadicInterval]:
    e = embeddings(x.field, prec)
    return [sigma_eval(e, x, i)[0] for i in range(e.degree)]


# names are looked up per call: perfbench/tracer.py rebinds them
_RATIONAL = _Scalar(
    enclosure=lambda x, prec: from_fraction(x, prec),
    sign=lambda x: (x > 0) - (x < 0),
    house=lambda x, prec: from_fraction(abs(x), prec),
    inverse_house=lambda x, prec: from_fraction(abs(1 / x), prec),
    re_parts=lambda x, prec: [from_fraction(x, prec)],
    is_integral=lambda x: x.denominator == 1,
    key=lambda x: x,
    field=lambda x: None,
)
_ALGEBRAIC = _Scalar(
    enclosure=lambda x, prec: x.enclosure(prec),
    sign=lambda x: x.sign_at_identity(),
    house=lambda x, prec: house(x, prec),
    inverse_house=lambda x, prec: house(x.inverse(), prec),
    re_parts=_field_re_parts,
    is_integral=lambda x: is_algebraic_integer(x),
    key=lambda x: x.as_fraction() if x.is_rational() else (x.field, x.coords),
    field=lambda x: x.field,
)


def scalar(x) -> tuple:
    """(x, how to read it); an int becomes a Fraction.  Any type but int,
    Fraction and FieldElement (a float or an interval, say) raises
    TypeError, so no float ever enters a computation."""
    if isinstance(x, Fraction):
        return x, _RATIONAL
    if isinstance(x, FieldElement):
        return x, _ALGEBRAIC
    if isinstance(x, int):
        return Fraction(x), _RATIONAL
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def scalar_sign(x):
    """Exact sign."""
    x, s = scalar(x)
    return s.sign(x)


def scalar_is_zero(x) -> bool:
    return scalar_sign(x) == 0


def scalar_enclosure(x, prec: int) -> DyadicInterval:
    """Identity-embedding enclosure of a scalar."""
    x, s = scalar(x)
    return s.enclosure(x, prec)


def scalar_at_least_one(x) -> bool:
    """Exactly >= 1 under the identity embedding."""
    x, s = scalar(x)
    return s.sign(x - 1) >= 0


# -- convergent recurrence -----------------------------------------------------

class ConvergentState:
    """(p_{n-1}, q_{n-1}, p_n, q_n) plus the index n."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, n: int, p_prev, q_prev, p_cur, q_cur):
        self.__dict__.update(n=n, p_prev=p_prev, q_prev=q_prev, p_cur=p_cur, q_cur=q_cur)


def initial_state(a0=0) -> ConvergentState:
    a0, _ = scalar(a0)
    one = Fraction(1)
    zero = Fraction(0)
    return ConvergentState(0, one, zero, a0, one)


def advance(state: ConvergentState, a_next) -> ConvergentState:
    """One step of p_{n+1} = a_{n+1} p_n + p_{n-1} (and likewise for q).

    A quotient from another field than the state's raises FieldMismatch in
    the field arithmetic itself.
    """
    a, _ = scalar(a_next)
    p = a * state.p_cur + state.p_prev
    q = a * state.q_cur + state.q_prev
    return ConvergentState(state.n + 1, state.p_cur, state.q_cur, p, q)


def determinant_value(state: ConvergentState):
    """q_n p_{n-1} - p_n q_{n-1}, which equals (-1)^n."""
    return state.q_cur * state.p_prev - state.p_cur * state.q_prev


def run_recurrence(quotients, a0=0) -> list[ConvergentState]:
    """States after each quotient, starting from [a0; q1, q2, ...]."""
    out = []
    st = initial_state(a0)
    for a in quotients:
        st = advance(st, a)
        out.append(st)
    return out


# -- value enclosures ----------------------------------------------------------

class CFValueEnclosure:
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, value: DyadicInterval, order: int, tail_bound_kind: str):
        self.__dict__.update(value=value, order=order, tail_bound_kind=tail_bound_kind)

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is CFValueEnclosure else NotImplemented

    def __hash__(self):
        return hash((self.value, self.order, self.tail_bound_kind))


def _convergent_interval(state: ConvergentState, work: int) -> DyadicInterval:
    p, q = state.p_cur, state.q_cur
    if isinstance(p, Fraction) and isinstance(q, Fraction):
        return from_fraction(p / q, work)
    return iv_div(scalar_enclosure(p, work), scalar_enclosure(q, work), work)


def _quotient_states(cf, n: int) -> list[ConvergentState]:
    """States of orders 1 .. n+3, each quotient certified >= 1."""
    st = initial_state(0)
    states = []
    for k in range(1, n + 4):
        a = cf.quotient(k)
        if not scalar_at_least_one(a):
            raise QuotientBelowOne(f"quotient at index {k} is not certainly >= 1")
        st = advance(st, a)
        states.append(st)
    return states


def _floor_log2(x: Dyadic) -> int:
    return x.exp + x.man.bit_length() - 1


def _never_point(p, q) -> bool:
    """No enclosure of p/q that ``_convergent_interval`` builds is a point:
    p or q is irrational, or p/q is a rational that is not dyadic."""
    if any(isinstance(x, FieldElement) and not x.is_rational() for x in (p, q)):
        return True
    p, q = (x.as_fraction() if isinstance(x, FieldElement) else Fraction(x) for x in (p, q))
    d = (p / q).denominator
    return d & (d - 1) != 0


def _least_useful_work(states: list[ConvergentState], n: int, qq: DyadicInterval) -> int:
    """A working precision below which every rung of ``enclose_value`` fails;
    0 when nothing is known.  qq encloses q_n q_{n+1} at 64 bits."""
    st = states[n + 1]
    if not _never_point(st.p_cur, st.q_cur):
        return 0
    c1 = _convergent_interval(st, 64)
    if c1.lo.sign() <= 0 or qq.lo.sign() <= 0:
        return 0
    return _floor_log2(c1.lo) + _floor_log2(qq.lo) - 3


def _q_product(states: list[ConvergentState], n: int, prec: int) -> DyadicInterval:
    """q_n q_{n+1} enclosed at prec bits."""
    return iv_mul(scalar_enclosure(states[n - 1].q_cur, prec),
                  scalar_enclosure(states[n].q_cur, prec), prec)


def enclose_value(cf, n: int, prec: int) -> CFValueEnclosure:
    """Rigorous enclosure of the CF limit [0; a1, a2, ...] at order n.

    The limit is sandwiched between consecutive convergents two orders deeper
    than requested: their hull sits strictly inside the order-n bracket with
    margin, so outward rounding can violate neither containment nor the width
    bound 1/(q_n q_{n+1}).  The working precision doubles from prec + 16
    bits until that bound is met: first, uncounted, up to the least useful
    work below, then for at most 8 rungs.  The convergent states do not
    depend on it, so they are built once.  A rung whose order-(n+2)
    convergent alone is wider than the bound fails without evaluating the
    order-(n+3) one, since their hull contains it.

    The rungs that must fail by the following lemma, with c = 3, are skipped
    without computing them, and they do not count against the 8.  ``iv_div`` and
    ``from_fraction`` at ``work`` bits round each endpoint x to a mantissa of
    at most work + 2 bits, so x is a multiple of a power of two
    2**k >= |x| * 2**-(work + 2).  Let 2**e <= p/q for the order-(n+2)
    convergent and 2**L <= q_n q_{n+1}, both read from 64-bit enclosures.
    The rung's interval [lo, hi] contains p/q, so hi >= 2**e.  If it is not
    a point, either lo >= hi/2, and then lo and hi are distinct multiples of
    2**(e - work - 3), or hi - lo > hi/2; either way it is at least
    2**(e - work - c) wide.  The bound's lower end is at most
    1/(q_n q_{n+1}) <= 2**-L, so the rung fails whenever e - work - c > -L.
    The interval is certainly not a point when p or q is an irrational field
    element, or when p/q is a rational that is not dyadic, whether p and q
    are rationals or rational field elements: the interval contains p/q, and
    a point interval is dyadic.  Otherwise no rung is skipped.  A skipped
    rung would fail if computed, so a call succeeds at the work where a
    ladder computing every rung from prec + 16 bits succeeds; the 8 rungs
    count from the least useful work, so the requested precision does not
    cap the work.

    Each rung is tried first against a coarse bound: half the lower end B64 of 1/(q_n q_{n+1}) from the same 64-bit enclosures.
    It never exceeds the lower end B of the bound at ``work``.  With
    Q = q_n q_{n+1}, B64 <= 1/Q, since those enclosures contain q_n and
    q_{n+1}.  At ``work`` = w >= 4 bits, each q >= 1 is enclosed with an
    upper end of at most q (1 + 2**(1 - w)): ``from_fraction`` rounds up
    to w bits, and a field element's enclosure contains q and is at most
    2**-w times its upper end wide.  ``iv_mul`` rounds the product of the upper ends up by
    at most that factor again, and ``iv_div`` rounds 1 over it down by a
    factor above 1 - 2**-w, so B >= (1 - 2**-w) / (Q (1 + 2**(1 - w))**3)
    >= 0.65 / Q > B64 / 2.  A rung whose hull meets the coarse bound meets
    B, and returns what it would return against B, having enclosed only p
    and q of orders n+2 and n+3 at ``work``; only a rung the coarse bound
    leaves undecided computes B.  So every outcome, ``PrecisionInsufficient``
    included, is again the same.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    work = prec + 16
    states = _quotient_states(cf, n)
    qq = _q_product(states, n, 64)
    least = _least_useful_work(states, n, qq)
    coarse = iv_div(singleton(1), qq, 64).lo.scaled(-1)
    while work < least:
        work *= 2
    for _ in range(8):
        c1 = _convergent_interval(states[n + 1], work)  # order n+2
        value = None
        for bound in (coarse, None):
            if bound is None:  # undecided by the coarse bound
                bound = iv_div(singleton(1), _q_product(states, n, work), work).lo
            if c1.width() <= bound:
                if value is None:
                    value = iv_hull(c1, _convergent_interval(states[n + 2], work))  # order n+3
                if value.width() <= bound:
                    return CFValueEnclosure(value, n, "nested-convergents")
        work *= 2
    raise PrecisionInsufficient("enclosure width bound not met")


# -- complex evaluation ----------------------------------------------------------

class GaussianRational:
    """Exact complex rational re + i*im."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, re: Fraction, im: Fraction):
        self.__dict__.update(re=re, im=im)

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is GaussianRational else NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))


def gaussian_cf(zs: list[tuple[int, int]], scale: int) -> tuple[int, int, int, int]:
    """Backward evaluation of [z0; z1, ..., zn] for z_k = (x_k + i*y_k)/scale.

    Projective and division-free: returns the Gaussian integers A = ar + i*ai
    and B = br + i*bi, B nonzero, with value A/B.  Each step takes the tail
    A/B to z + B/A = (Z*A + scale*B)/(scale*A).  Raises TailContainsZero when
    an intermediate tail is exactly zero.
    """
    if not zs:
        raise ValueError("empty quotient list")
    ar, ai = zs[-1]
    br, bi = scale, 0
    for x, y in reversed(zs[:-1]):
        if not (ar or ai):
            raise TailContainsZero("exact zero tail in complex CF")
        ar, ai, br, bi = (x * ar - y * ai + scale * br, x * ai + y * ar + scale * bi,
                          scale * ar, scale * ai)
    return ar, ai, br, bi


def complex_cf_eval_exact(zs: list[GaussianRational]) -> GaussianRational:
    """Exact [z0; z1, ..., zn]: ``gaussian_cf`` over the lcm of the denominators."""
    scale = math.lcm(*(c.denominator for z in zs for c in (z.re, z.im)))
    ar, ai, br, bi = gaussian_cf(
        [(z.re.numerator * (scale // z.re.denominator), z.im.numerator * (scale // z.im.denominator))
         for z in zs], scale)
    n = br * br + bi * bi  # A/B = A*conj(B)/|B|^2
    return GaussianRational(Fraction(ar * br + ai * bi, n), Fraction(ai * br - ar * bi, n))
