import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import (
    ComplexInterval,
    DyadicInterval,
    from_fraction,
    iv_add,
    iv_div,
    iv_hull,
    iv_mul,
    singleton,
)
from cfindep.bigreal.poly import IntPoly, refine_root
from cfindep.catalog import build_config, catalog
from cfindep.cfcore import (
    TAIL_BOUND_KIND,
    GaussianRational,
    _convergent_interval,
    _least_useful_work,
    _q_product,
    advance,
    complex_cf_eval_exact,
    determinant_value,
    enclose_value,
    gaussian_cf,
    initial_state,
    run_recurrence,
    scalar,
    scalar_at_least_one,
    scalar_enclosure,
    scalar_is_zero,
)
from cfindep.errors import (
    BitBudgetExceeded,
    FieldMismatch,
    PrecisionInsufficient,
    QuotientBelowOne,
    TailContainsZero,
)
from cfindep.numfield import FieldElement
from cfindep.sequences import phi_field, spec, sqrt2_field
from enclosing import contains


class ZeroTailDivision(Exception):
    """eval_finite hit an exactly zero tail."""


def eval_finite(quotients):
    """Exact backward evaluation a0 + 1/(a1 + 1/(...)), the reference the
    recurrence is checked against.  Raises ZeroTailDivision when an
    intermediate tail is exactly zero."""
    qs = [scalar(a)[0] for a in quotients]
    if not qs:
        raise ValueError("empty quotient list")
    acc = qs[-1]
    for a in reversed(qs[:-1]):
        if scalar_is_zero(acc):
            raise ZeroTailDivision("tail evaluates to zero")
        acc = a + 1 / acc
    return acc


def test_advance_fibonacci_and_pell():
    states = list(run_recurrence([1] * 11))
    assert states[9].q_cur == 89 and states[10].q_cur == 144
    pell = list(run_recurrence([2] * 5))
    assert [s.q_cur for s in pell] == [2, 5, 12, 29, 70]
    one = list(run_recurrence([2]))
    assert one[0].p_cur == Fraction(1) and one[0].q_cur == 2


def test_determinant_identity_random_corpus():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 30)
        qs = [Fraction(rng.randint(1, 10**6), rng.randint(1, 100)) + 1 for _ in range(n)]
        st = initial_state()
        for k, a in enumerate(qs, start=1):
            st = advance(st, a)
            assert determinant_value(st) == (-1) ** k


def test_advance_refuses_a_quotient_from_another_field():
    st = advance(initial_state(), sqrt2_field().generator())
    with pytest.raises(FieldMismatch):
        advance(st, phi_field().generator())


def test_determinant_identity_field_corpus():
    k = sqrt2_field()
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 15)
        st = initial_state()
        for i in range(1, n + 1):
            u, v = rng.randint(1, 9), rng.randint(0, 4)
            st = advance(st, k.element([u, v]))
            det = determinant_value(st)
            want = k.from_rational((-1) ** i)
            assert (det - want).is_zero()


def test_eval_finite_examples():
    assert eval_finite([1, 1, 1, 1, 1]) == Fraction(8, 5)
    assert eval_finite([0, 2]) == Fraction(1, 2)
    assert eval_finite([2]) == Fraction(2)
    with pytest.raises(ZeroTailDivision):
        eval_finite([1, 1, -1])


def test_eval_finite_matches_recurrence():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 12)
        qs = [Fraction(rng.randint(1, 50), rng.randint(1, 5)) + 1 for _ in range(n)]
        st = list(run_recurrence(qs))[-1]
        assert eval_finite([Fraction(0)] + qs) == Fraction(st.p_cur) / Fraction(st.q_cur)


def alternating_sum(quotients):
    """sum_{k=1}^n (-1)^(k+1) / (q_k q_{k-1}) for [0; a1, ..., an], from the
    recurrence's denominators (q_0 = 1)."""
    qs = [1] + [s.q_cur for s in run_recurrence(quotients)]
    return sum(Fraction((-1) ** k) / (qs[k] * qs[k + 1]) for k in range(len(qs) - 1))


def product_below_denominator(quotients) -> bool:
    """q_n > a_1 a_2 ... a_n for the CF [0; a1, ..., an]."""
    return list(run_recurrence(quotients))[-1].q_cur > math.prod(Fraction(a) for a in quotients)


def test_alternating_sum_examples():
    assert alternating_sum([1, 1, 1]) == Fraction(2, 3)
    assert alternating_sum([5]) == Fraction(1, 5)
    assert alternating_sum([2, 2]) == Fraction(2, 5)


def test_alternating_sum_equals_convergent():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(1, 15)
        qs = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) + 1 for _ in range(n)]
        st = list(run_recurrence(qs))[-1]
        assert alternating_sum(qs) == Fraction(st.p_cur) / Fraction(st.q_cur)


def test_product_lower_bound():
    st = list(run_recurrence([2] * 5))[-1]
    assert st.q_cur == 70 and product_below_denominator([2] * 5)
    assert product_below_denominator([1] * 5)
    st = list(run_recurrence([3, 1, 4]))[-1]
    assert st.q_cur == 19 and product_below_denominator([3, 1, 4])
    assert not product_below_denominator([7])  # q_1 = a_1: the bound holds from n = 2


def test_enclose_value_golden():
    enc = enclose_value(spec("constant", value=Fraction(1)), 10, 64)
    # limit is 1/phi, inside [55/89, 89/144]
    assert Fraction(55, 89) <= enc.lo.as_fraction()
    assert enc.hi.as_fraction() <= Fraction(89, 144)
    assert enc.width().as_fraction() <= Fraction(1, 89 * 144)
    phi_poly = IntPoly.of(-1, -1, 1)
    root = refine_root(phi_poly, DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -80))
    inv_phi_lo = 1 / root.hi.as_fraction()
    inv_phi_hi = 1 / root.lo.as_fraction()
    assert enc.lo.as_fraction() <= inv_phi_lo and inv_phi_hi <= enc.hi.as_fraction()
    assert TAIL_BOUND_KIND == "nested-convergents"


def test_enclose_value_sqrt2_minus_one():
    enc = enclose_value(spec("constant", value=Fraction(2)), 8, 96)
    root = refine_root(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -90))
    lo = root.lo.as_fraction() - 1
    hi = root.hi.as_fraction() - 1
    assert enc.lo.as_fraction() <= lo and hi <= enc.hi.as_fraction()
    st = list(run_recurrence([Fraction(2)] * 9))
    bound = Fraction(1) / (Fraction(st[7].q_cur) * Fraction(st[8].q_cur))
    assert enc.width().as_fraction() <= bound


def test_enclose_precision_refinement_nested():
    s = spec("constant", value=Fraction(2))
    a = enclose_value(s, 8, 64)
    b = enclose_value(s, 8, 128)
    assert a.contains_interval(b)


def test_enclose_rejects_small_quotients():
    with pytest.raises(QuotientBelowOne):
        enclose_value(spec("constant", value=Fraction(1, 2)), 3, 64)


def _rung_loop_enclosure(cf, n: int, prec: int) -> DyadicInterval:
    """Reference: rebuild the recurrence and evaluate both convergents on every
    rung from prec + 16 bits; 8 failing rungs at or above the least useful
    work exhaust the precision, as in ``enclose_value``."""
    work, failed, least = prec + 16, [], None
    while True:
        st = initial_state()
        states = []
        for k in range(1, n + 4):
            a = cf.quotient(k)
            if not scalar_at_least_one(a):
                raise QuotientBelowOne(f"quotient at index {k} is not certainly >= 1")
            st = advance(st, a)
            states.append(st)
        c1 = _convergent_interval(states[n + 1], work)
        c2 = _convergent_interval(states[n + 2], work)
        value = iv_hull(c1, c2)
        qn = scalar_enclosure(states[n - 1].q_cur, work)
        qn1 = scalar_enclosure(states[n].q_cur, work)
        bound = iv_div(singleton(1), iv_mul(qn, qn1, work), work)
        if value.width() <= bound.lo:
            return value
        failed.append(work)
        # read only then: test_enclose_value_evaluates_only_the_succeeding_rung
        # records the precision of every enclosure this reference computes
        if len(failed) >= 8:
            if least is None:
                least = _least_useful_work(states, n, _q_product(states, n, 64))
            if sum(w >= least for w in failed) == 8:
                raise PrecisionInsufficient("enclosure width bound not met")
        work *= 2


def _outcome(enclose, *args):
    try:
        return enclose(*args)
    except PrecisionInsufficient:
        return PrecisionInsufficient


# the enclose operations of the benchmark's probe workload: (example, N, precision)
PROBE_ENCLOSE = (("ex1", 6, 1024), ("hanluc", 6, 2048), ("golden-powers", 5, 1024))


def test_enclose_value_equals_rung_loop_on_catalog():
    for s in [s for name in catalog() for s in build_config(name).sequences]:
        for n in range(2, 6):
            for prec in (64, 256, 1024):
                args = (s, n, prec)
                assert _outcome(enclose_value, *args) == _outcome(_rung_loop_enclosure, *args), args
    for name, n, prec in PROBE_ENCLOSE:
        args = (build_config(name).sequences[0], n, prec)
        assert enclose_value(*args) == _rung_loop_enclosure(*args), name


def test_enclose_value_higher_precision_never_fails_where_lower_succeeds():
    # every catalog sequence at N = 2..6: the only failure is the quotient
    # guard, which does not depend on the precision
    for name in catalog():
        for j, s in enumerate(build_config(name).sequences, start=1):
            for n in range(2, 7):
                outcomes = []
                for prec in (64, 128, 256, 512):
                    try:
                        enclose_value(s, n, prec)
                    except (BitBudgetExceeded, PrecisionInsufficient) as e:
                        outcomes.append(type(e))
                    else:
                        outcomes.append(True)
                where = (name, j, n, outcomes)
                assert PrecisionInsufficient not in outcomes, where
                assert outcomes == sorted(outcomes, key=lambda o: o is True), where


def test_enclose_value_evaluates_only_the_succeeding_rung(monkeypatch):
    # ex1 at N = 6 and 1024 bits succeeds on its sixth rung; the five below it
    # fail by the rounding-grid lemma and are skipped, so besides the 64-bit
    # enclosures that read the lemma's bounds every enclosure is at one precision
    s = build_config("ex1").sequences[0]
    requested = []
    enclosure = FieldElement.enclosure

    def recording(self, prec):
        requested.append(prec)
        return enclosure(self, prec)

    monkeypatch.setattr(FieldElement, "enclosure", recording)
    expected = _rung_loop_enclosure(s, 6, 1024)
    rungs = sorted(set(requested))
    assert rungs == [1040 << k for k in range(6)]
    requested.clear()
    assert enclose_value(s, 6, 1024) == expected
    assert sorted(set(requested)) == [64, rungs[-1]]


def test_enclose_value_builds_exact_recurrence_once():
    calls = []

    def quotient(n):
        calls.append(n)
        return Fraction(2) ** (8 * n)

    s = spec("custom", fn=quotient)
    n = 2
    expected = _rung_loop_enclosure(s, n, 4)
    assert len(calls) >= 2 * (n + 3)  # the reference needs at least two rungs
    calls.clear()
    assert enclose_value(s, n, 4) == expected
    assert len(calls) == n + 3


def test_nested_convergents_property():
    qs = [Fraction(x) for x in (1, 2, 1, 3, 1, 2, 4, 1, 2, 5)]
    states = list(run_recurrence(qs))
    vals = [Fraction(s.p_cur) / Fraction(s.q_cur) for s in states]
    evens = vals[1::2]  # p_2/q_2, p_4/q_4, ... (0-indexed: states[1] is order 2)
    odds = vals[0::2]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a > b for a, b in zip(odds, odds[1:]))
    assert max(evens) < min(odds)


def test_complex_cf_eval_examples():
    assert gaussian_cf([(2, 0), (2, 0)], 1) == (5, 0, 2, 0)  # 5/2
    assert complex_cf_eval_exact([GaussianRational.of(2), GaussianRational.of(2)]) == GaussianRational.of(Fraction(5, 2))
    vi = complex_cf_eval_exact([GaussianRational.of(0, 2), GaussianRational.of(0, 2)])
    assert vi == GaussianRational.of(0, Fraction(3, 2))
    vr = complex_cf_eval_exact([GaussianRational.of(3), GaussianRational.of(4), GaussianRational.of(5)])
    assert vr == GaussianRational.of(Fraction(68, 21))
    with pytest.raises(TailContainsZero):
        gaussian_cf([(1, 0), (0, 0)], 1)


def _boxed_cf(zs: list[ComplexInterval], prec: int) -> ComplexInterval:
    """Reference: invert and add one box at a time, from the tail, rounding outward."""
    acc = zs[-1]
    for z in reversed(zs[:-1]):
        d = acc.abs_squared(prec)
        assert d.lo.sign() > 0
        acc = ComplexInterval(iv_add(z.re, iv_div(acc.re, d, prec), prec),
                              iv_add(z.im, iv_div(-acc.im, d, prec), prec))
    return acc


def test_complex_exact_matches_interval():
    pts = [GaussianRational.of(Fraction(5, 2), Fraction(-1, 3)),
           GaussianRational.of(Fraction(3), Fraction(2))]
    exact = complex_cf_eval_exact(pts)
    boxed = _boxed_cf([ComplexInterval(from_fraction(p.re, 96), from_fraction(p.im, 96)) for p in pts], 96)
    assert contains(boxed.re, exact.re) and contains(boxed.im, exact.im)


def _stepwise_cf(zs: list[GaussianRational]) -> GaussianRational:
    """Reference: invert and add one Gaussian rational at a time, from the tail."""
    acc = zs[-1]
    for z in reversed(zs[:-1]):
        d = acc.re * acc.re + acc.im * acc.im
        if d == 0:
            raise TailContainsZero("exact zero tail in complex CF")
        acc = GaussianRational(z.re + acc.re / d, z.im - acc.im / d)
    return acc


_gaussian_rationals = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_gaussian_rationals, min_size=1, max_size=8))
@example([GaussianRational.of(0)])
@example([GaussianRational.of(3), GaussianRational.of(1), GaussianRational.of(-1)])
@example([GaussianRational.of(Fraction(1, 3), Fraction(-2, 7)), GaussianRational.of(0, 1),
          GaussianRational.of(0, 1)])
def test_complex_exact_matches_stepwise_evaluation(zs):
    try:
        expected = _stepwise_cf(zs)
    except TailContainsZero:
        with pytest.raises(TailContainsZero):
            complex_cf_eval_exact(zs)
    else:
        assert complex_cf_eval_exact(zs) == expected


def test_complex_exact_zero_tail_raises():
    with pytest.raises(TailContainsZero):  # [3; 1, -1]: the tail 1 + 1/(-1) is zero
        complex_cf_eval_exact([GaussianRational.of(3), GaussianRational.of(1), GaussianRational.of(-1)])
    with pytest.raises(ValueError):
        complex_cf_eval_exact([])


def test_error_term_diagnostic():
    # 1/(q_n^2 (a_{n+1} + q_{n-1}/q_n + 1)) < |alpha - p_n/q_n| < 1/(q_n^2 (a_{n+1} + q_{n-1}/q_n))
    # and [0; a_n, ..., a_1] = q_{n-1}/q_n, for alpha = sqrt2 - 1 at n = 5
    qs = [Fraction(2)] * 6
    st = list(run_recurrence(qs[:-1]))[-1]
    assert eval_finite([Fraction(0)] + qs[-2::-1]) == Fraction(st.q_prev) / Fraction(st.q_cur)
    tail = qs[-1] + Fraction(st.q_prev) / Fraction(st.q_cur)
    upper = 1 / (Fraction(st.q_cur) ** 2 * tail)
    lower = 1 / (Fraction(st.q_cur) ** 2 * (tail + 1))
    root = refine_root(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -90))
    err_lo = abs(root.lo.as_fraction() - 1 - Fraction(st.p_cur) / Fraction(st.q_cur))
    err_hi = abs(root.hi.as_fraction() - 1 - Fraction(st.p_cur) / Fraction(st.q_cur))
    assert lower <= min(err_lo, err_hi) and max(err_lo, err_hi) <= upper


def test_scalar_is_zero_variants():
    assert scalar_is_zero(Fraction(0))
    assert scalar_is_zero(sqrt2_field().zero())
    assert not scalar_is_zero(sqrt2_field().generator())
