import sys
from collections import Counter
from fractions import Fraction

import pytest

from cfindep import criteria
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, singleton
from cfindep.bigreal.poly import IntPoly
from cfindep.catalog import build_config
from cfindep.cfcore import run_recurrence, scalar
from cfindep.criteria import (
    INDET,
    QuotientTable,
    Thm1Config,
    _escalating,
    _trailing_window,
    check_all,
    check_condition10,
    check_decomposition,
    check_interleaving,
    compute_d,
    growth_bound,
    growth_margin,
    ratio_margin,
)
from cfindep.sequences import CFSpec, Decomposition, polynomial_root_family, spec, sqrt2_field
from enclosing import contains


def test_compute_d():
    assert compute_d(2, 2) == 3
    for k in range(2, 7):
        assert compute_d(k, k) == k * k - 1
    assert compute_d(1, 2) == 2
    assert compute_d(1, 3) == 2
    assert compute_d(1, 7) == 6
    # always >= 2; equals DM-1 iff DM >= 3
    for D in range(1, 5):
        for M in range(1, 5):
            d = compute_d(D, M)
            assert d >= 2
            assert (d == D * M - 1) == (D * M >= 3)


def _sqrt2_scaled_config(m: int) -> Thm1Config:
    """One sequence a_n = sqrt2 * m (constant), in Q(sqrt2)."""
    f = sqrt2_field()
    val = f.element([0, m])
    s = spec("custom", field=f, fn=lambda n: val,
             decomp_fn=lambda n: Decomposition(m, f.generator(), f.zero(), f.one()))
    return Thm1Config(M=1, sequences=[s], gamma=Fraction(1, 2), field=f)


def test_check_decomposition_examples():
    # a = (4+sqrt2) * m with S=m, b=4+sqrt2, c=0, d=1
    base = spec("doubly-exponential", d=3)
    fam = polynomial_root_family(IntPoly.of(14, -8, 1), base)
    cfg = Thm1Config(M=2, sequences=[fam[1], fam[0]], gamma=Fraction(1, 2), field=fam[1].field)
    for n in (1, 2, 3):
        for j in (1, 2):
            assert check_decomposition(QuotientTable(cfg), n, j) == "pass"
    # a = 5/2 with S=5, b=1, c=0, d=2
    s = spec("constant", value=Fraction(5, 2))
    cfg2 = Thm1Config(M=1, sequences=[s], gamma=Fraction(1, 2))
    assert check_decomposition(QuotientTable(cfg2), 1, 1) == "pass"
    # a = 1/2 fails the a >= 1 requirement
    s3 = spec("constant", value=Fraction(1, 2))
    cfg3 = Thm1Config(M=1, sequences=[s3], gamma=Fraction(1, 2))
    assert check_decomposition(QuotientTable(cfg3), 1, 1) == "fail"


def _house_reports(cfg: Thm1Config, N: int, precision: int) -> dict:
    """The two house conditions of check_all, with house-half forced."""
    forced = Thm1Config(M=cfg.M, sequences=cfg.sequences, gamma=cfg.gamma, field=cfg.field,
                        D=cfg.D, condition5_mode="house-half", name=cfg.name)
    rep = check_all(forced, N, precision)
    return {c.name: c for c in rep.conditions if c.name.startswith("house")}


def test_house_half_verdicts():
    # a = sqrt2 * m: house(1/a) = 1/(sqrt2 m) >= 1/2 only for m = 1
    one = _house_reports(_sqrt2_scaled_config(1), 1, 96)
    assert one["house-inverse-half"].verdict == one["house-growth-bound"].verdict == "pass"
    assert _house_reports(_sqrt2_scaled_config(2), 1, 96)["house-inverse-half"].verdict == "fail"
    assert _house_reports(_sqrt2_scaled_config(5), 1, 96)["house-inverse-half"].verdict == "fail"


def test_auto_mode_stops_house_half_at_the_first_failing_index(monkeypatch):
    # ex1 fails house(1/a) >= 1/2 at n = 1 and auto mode reports real-part-sign,
    # so no later index's house(1/a) is computed; forced house-half computes all
    computed = Counter()
    inverse_house = QuotientTable.inverse_house

    def counted(self, n, j, work):
        computed[self.cfg.condition5_mode, n] += 1
        return inverse_house(self, n, j, work)

    monkeypatch.setattr(QuotientTable, "inverse_house", counted)
    assert check_all(build_config("ex1"), 3, 128).mode_used == "real-part-sign"
    assert {n for _, n in computed} == {1}
    _house_reports(build_config("ex1"), 3, 128)
    assert {n for mode, n in computed if mode == "house-half"} == {1, 2, 3}


def test_auto_mode_keeps_a_passing_house_half_report():
    rep = check_all(_sqrt2_scaled_config(1), 4, 96)
    half = rep.conditions[1]
    assert (rep.mode_used, half.name, half.verdict) == ("house-half", "house-inverse-half", "pass")
    assert len(half.margin_series) == 4


def test_house_bound_example():
    # b = 4 + sqrt2 scaled by doubly-exponential base: the growth bound holds
    # for all n >= 1 at d=3, gamma=1/2 (house(1/a) < 1/2 still fails, which is
    # exactly what auto mode is for)
    from cfindep.criteria import _check_house_bound

    base = spec("doubly-exponential", d=3)
    fam = polynomial_root_family(IntPoly.of(14, -8, 1), base)
    cfg = Thm1Config(M=2, sequences=[fam[1], fam[0]], gamma=Fraction(1, 2), field=fam[1].field)
    for n in range(1, 5):
        assert _check_house_bound(QuotientTable(cfg), n, 1, 128)[0] == "pass"
    half = _house_reports(cfg, 1, 128)["house-inverse-half"]
    assert half.verdict == "fail" and half.failing_index == (1, 1)


def test_condition10_examples():
    # rational a >= 1 passes with identity-only embedding, e = 0
    s = spec("constant", value=Fraction(3))
    cfg = Thm1Config(M=1, sequences=[s], gamma=Fraction(1, 2))
    assert check_condition10(QuotientTable(cfg), 1, 1, 96)[0] == "pass"
    # sign alternating with n violates the fixed-sign table
    f = sqrt2_field()

    def alt(n):
        return f.element([0, (-1) ** n * n * 2])

    s2 = spec("custom", field=f, fn=alt)
    cfg2 = Thm1Config(M=1, sequences=[s2], gamma=Fraction(1, 2), field=f)
    assert check_condition10(QuotientTable(cfg2), 2, 1, 96)[0] == "fail"  # table derived at n=1 breaks at n=2


def test_interleaving_examples():
    # M = 1: always passes for a > 1
    s = spec("constant", value=Fraction(7))
    cfg = Thm1Config(M=1, sequences=[s], gamma=Fraction(1, 2))
    assert check_interleaving(QuotientTable(cfg), 2, 96)[0] == "pass"
    # a_{n,1} = 2 * a_{n,M} with huge a_{n,M}: first branch dominates
    big = spec("pow2-geometric", d=3)
    twice = spec("custom", fn=lambda n: 2 * big.quotient(n))
    cfg2 = Thm1Config(M=2, sequences=[twice, big], gamma=Fraction(1, 2))
    assert check_interleaving(QuotientTable(cfg2), 2, 96)[0] == "pass"
    # a_{n,1} = a_{n,M}^3 with a_{n,M} = 2^n: fails for large n (gamma = 1/2)
    base = spec("custom", fn=lambda n: Fraction(2) ** n)
    cube = spec("custom", fn=lambda n: Fraction(2) ** (3 * n))
    cfg3 = Thm1Config(M=2, sequences=[cube, base], gamma=Fraction(1, 2))
    assert check_interleaving(QuotientTable(cfg3), 60, 96)[0] == "fail"


def test_ratio_margin_examples():
    base = spec("doubly-exponential", d=3)
    fam = polynomial_root_family(IntPoly.of(14, -8, 1), base)
    cfg = Thm1Config(M=2, sequences=[fam[1], fam[0]], gamma=Fraction(1, 2), field=fam[1].field)
    ms = ratio_margin(QuotientTable(cfg), 1, 8, 96)
    assert ms.verdict == "pass"
    # ratio (4+sqrt2)/(4-sqrt2) - 1 ~ 1.094; margin grows like sqrt(n)
    assert float(ms.values[3].midpoint()) == pytest.approx(2 * 1.09383632, rel=1e-4)
    # equal sequences: margin identically zero -> fail
    s = spec("constant", value=Fraction(5))
    cfg2 = Thm1Config(M=2, sequences=[s, s], gamma=Fraction(1, 2))
    assert ratio_margin(QuotientTable(cfg2), 1, 8, 96).verdict == "fail"
    # ratio 1 + 1/n: margin 1/sqrt(n) decays -> indeterminate
    a = spec("custom", fn=lambda n: Fraction(n + 1, n) * 5)
    b = spec("constant", value=Fraction(5))
    cfg3 = Thm1Config(M=2, sequences=[a, b], gamma=Fraction(1, 2))
    assert ratio_margin(QuotientTable(cfg3), 1, 12, 96).verdict == "indeterminate"


def test_growth_margin_examples():
    # a_n = 2^(n 3^n), d = 3: g_n = 2^n -> pass
    base = spec("doubly-exponential", d=3)
    cfg = Thm1Config(M=1, sequences=[base], gamma=Fraction(1, 2), D=2)
    assert cfg.d == 2  # D=2, M=1 -> max(2, 1) = 2
    cfg3 = Thm1Config(M=2, sequences=[base, base], gamma=Fraction(1, 2), D=2)
    assert cfg3.d == 3
    ms = growth_margin(QuotientTable(cfg3), 1, 6, 96)
    assert ms.verdict == "pass"
    assert ms.records and len(ms.records) >= 2
    # a_n = 2^(3^n), d = 3: g identically 2 -> indeterminate
    geo = spec("pow2-geometric", d=3)
    cfg4 = Thm1Config(M=2, sequences=[geo, geo], gamma=Fraction(1, 2), D=2)
    ms2 = growth_margin(QuotientTable(cfg4), 1, 6, 96)
    assert ms2.verdict == "indeterminate"
    assert all(contains(v, Fraction(2)) for v in ms2.values)
    # a_n = n, d = 2: g -> 1, certainly decreasing -> fail
    lin = spec("polynomial", coeffs=(Fraction(0), Fraction(1)))
    cfg5 = Thm1Config(M=2, sequences=[lin, lin], gamma=Fraction(1, 2), D=1)
    ms3 = growth_margin(QuotientTable(cfg5), 1, 16, 96)
    assert ms3.verdict == "fail"


def test_growth_bound_exact_boundary():
    # at n=1 the second branch is exactly 2^d
    b = growth_bound(singleton(4), 1, Fraction(1, 2), 2, 96)
    assert contains(b, Fraction(4))
    assert b.lo.as_fraction() >= 4  # max(2^(sqrt(2)), 4) = 4 exactly


def test_check_all_ex1_and_witness():
    cfg = build_config("ex1")
    rep = check_all(cfg, 6, 128)
    assert rep.overall == "pass"
    assert rep.mode_used == "real-part-sign"
    assert rep.d == 3
    names = [c.name for c in rep.conditions]
    assert "decomposition" in names and "interleaving" in names
    # violate a >= 1 at n = 1: overall fail with witness (1, j)
    bad = spec("constant", value=Fraction(1, 3))
    cfgbad = Thm1Config(M=2, sequences=[spec("constant", value=Fraction(5)), bad],
                        gamma=Fraction(1, 2))
    repbad = check_all(cfgbad, 3, 96)
    assert repbad.overall == "fail"
    dec = next(c for c in repbad.conditions if c.name == "decomposition")
    assert dec.verdict == "fail" and dec.failing_index == (1, 2)


def test_nonpositive_quotient_fails_without_crash():
    # a zero or negative quotient is a decomposition failure at (1, 1), not a
    # crash in a later condition that takes its logarithm or inverse
    f = sqrt2_field()
    seqs = [
        spec("polynomial", coeffs=(Fraction(-1), Fraction(1))),  # a_1 = 0
        spec("constant", value=Fraction(-2)),
        spec("custom", field=f, fn=lambda n: f.element([0, (-1) ** n * n * 2]),
             decomp_fn=lambda n: Decomposition((-1) ** n * n * 2, f.generator(), f.zero(), f.one())),
    ]
    for seq in seqs:
        rep = check_all(Thm1Config(M=1, sequences=[seq], gamma=Fraction(1, 2), field=seq.field), 3, 96)
        assert rep.overall == "fail"
        dec = rep.conditions[0]
        assert dec.name == "decomposition" and dec.verdict == "fail" and dec.failing_index == (1, 1)
    # a zero quotient as the divisor of the ratio condition
    two = Thm1Config(M=2, sequences=[spec("constant", value=Fraction(5)), seqs[0]],
                     gamma=Fraction(1, 2))
    rep = check_all(two, 3, 96)
    assert rep.overall == "fail" and rep.conditions[0].failing_index == (1, 2)


def test_monotone_precision():
    cfg = build_config("ex1")
    r1 = check_all(cfg, 4, 128)
    r2 = check_all(cfg, 4, 256)
    assert r1.overall == r2.overall == "pass"
    for c1, c2 in zip(r1.conditions, r2.conditions):
        if c1.verdict == "pass":
            assert c2.verdict == "pass"


def test_fail_reverification_at_doubled_precision():
    # hanluc interleaving failure is not a precision artifact
    cfg = build_config("hanluc")
    assert check_interleaving(QuotientTable(cfg), 1, 128)[0] == "fail"
    assert check_interleaving(QuotientTable(cfg), 1, 256)[0] == "fail"


def test_specialization_consistency():
    # the Theorem-1 checker on hand-built div-by-j sequences agrees with the
    # c2 catalog entry at D=1, M=K
    base = spec("doubly-exponential", d=2, c=3)
    K = 3
    manual = Thm1Config(
        M=K,
        sequences=[spec("div-by-j", base=base, j=j) for j in range(1, K + 1)],
        gamma=Fraction(1, 2), field=None, D=1,
    )
    auto = build_config("c2", K=K)
    r_manual = check_all(manual, 5, 128)
    r_auto = check_all(auto, 5, 128)
    assert r_manual.overall == r_auto.overall
    assert [c.verdict for c in r_manual.conditions] == [c.verdict for c in r_auto.conditions]


def test_gamma_validation():
    with pytest.raises(ValueError):
        Thm1Config(M=1, sequences=[spec("constant", value=Fraction(2))], gamma=Fraction(1))
    with pytest.raises(ValueError):
        Thm1Config(M=2, sequences=[spec("constant", value=Fraction(2))], gamma=Fraction(1, 2))


def _table_calls(monkeypatch, cfg, N, precision):
    """Counters of the CFSpec.quotient calls made from criteria, keyed by
    (sequence, n), and of every growth_bound call by its arguments."""
    quotients, bounds = Counter(), Counter()
    quotient, growth_bound = CFSpec.quotient, criteria.growth_bound

    def counted_quotient(self, n):
        if sys._getframe(1).f_globals["__name__"] == "cfindep.criteria":
            quotients[(self, n)] += 1
        return quotient(self, n)

    def counted_bound(a_iv, n, gamma, d, prec):
        bounds[(a_iv, n, gamma, d, prec)] += 1
        return growth_bound(a_iv, n, gamma, d, prec)

    monkeypatch.setattr(CFSpec, "quotient", counted_quotient)
    monkeypatch.setattr(criteria, "growth_bound", counted_bound)
    check_all(cfg, N, precision)
    return quotients, bounds


@pytest.mark.parametrize("name", ["ex1", "c5"])
def test_check_all_derives_each_quotient_once(monkeypatch, name):
    # one check_all reads every a_{n,j} and its growth bound through one table;
    # c5's three quotients coincide at n = 1, where pi(1) = 0
    cfg, N, precision = build_config(name), 6, 128
    quotients, bounds = _table_calls(monkeypatch, cfg, N, precision)
    assert quotients and bounds
    assert max(quotients.values()) == 1 and max(bounds.values()) == 1
    # every sequence and index is read
    assert set(quotients) == {(s, n) for s in cfg.sequences for n in range(1, N + 1)}


def test_float_quotients_are_refused():
    # a float never decides a verdict: check_all and the recurrence refuse it
    # instead of reading it as a Fraction
    big = spec("custom", fn=lambda n: 2.0 ** (n * 3 ** n) * 1.5)
    small = spec("custom", fn=lambda n: 2.0 ** (n * 3 ** n))
    with pytest.raises(TypeError, match="float"):
        check_all(Thm1Config(M=2, sequences=[big, small]), 3, 64)
    with pytest.raises(TypeError, match="float"):
        run_recurrence([1.5, 2.5])


@pytest.mark.parametrize("K", [3, 4])
def test_t2_verdict_in_its_quartic_field(K):
    # at K = 3 and 4 every t2 sequence lies in one totally real field of
    # degree 4, so the ratio condition divides quartic field elements
    rep = check_all(build_config("t2", K=K), 4, 256)
    assert rep.overall == "pass"


# a_n/j over a_n = 2**(n k**n) with d = 2D - 1 > k: a_n**(1/d**n) =
# 2**(n (k/d)**n) j**(-1/d**n) tends to 1, so the limsup hypothesis is false,
# though the series first rises above 2
@pytest.mark.parametrize("k, D, N, verdict", [
    (4, 3, 8, "indeterminate"),
    (5, 4, 7, "fail"),
    (7, 5, 6, "indeterminate"),
    (3, 3, 5, "fail"),
])
def test_growth_limsup_does_not_pass_a_falling_window(k, D, N, verdict):
    base = spec("doubly-exponential", d=k)
    cfg = Thm1Config(M=2, sequences=[spec("div-by-j", base=base, j=j) for j in (1, 2)], D=D)
    rep = check_all(cfg, N, 128)
    growth = next(c for c in rep.conditions if c.name == "growth-limsup")
    assert growth.verdict == rep.overall == verdict


def test_interval_quotients_are_refused():
    # every quotient is exact: an enclosure is not a scalar
    iv = DyadicInterval(Dyadic(2), Dyadic(3))
    with pytest.raises(TypeError, match="DyadicInterval"):
        scalar(iv)
    with pytest.raises(TypeError, match="DyadicInterval"):
        check_all(Thm1Config(M=1, sequences=[spec("custom", fn=lambda n: iv)]), 2, 64)


def _iv(lo, hi):
    return DyadicInterval(Dyadic(lo), Dyadic(hi))


def test_trailing_window_decreases_only_certainly():
    # [1, 3] after [2, 4] may lie above it: overlapping entries are not a
    # certain strict decrease, though each lower end is below the one before
    high, overlapping, below = _iv(2, 4), _iv(1, 3), _iv(0, 1)
    assert _trailing_window([high, overlapping], 8) == ([high, overlapping], False)
    assert _trailing_window([high, below], 8) == ([high, below], True)


class _Enclosures:
    """A quotient table for growth_margin: the hand-built enclosures of
    a_{n,1}, with d = 1, so that each value encloses a_{n,1} itself."""

    d = 1

    def __init__(self, *enclosures):
        self.enclosures = enclosures

    def enclosure(self, n, j, work):
        return self.enclosures[n - 1]


@pytest.mark.parametrize("second, records, verdict", [
    (_iv(3, 8), [1], INDET),  # overlaps the first: possibly, not certainly, a record
    (_iv(5, 8), [1, 2], "pass"),
])
def test_growth_record_needs_a_certainly_higher_value(second, records, verdict):
    series = growth_margin(_Enclosures(_iv(3, 4), second), 1, 2, 64)
    assert (series.records, series.verdict) == (records, verdict)


def test_escalation_doubles_until_a_verdict():
    works = []

    def third_doubling(work):
        works.append(work)
        return ("pass" if work >= 8 * 64 else None), work

    assert _escalating(third_doubling, 64) == ("pass", 64)  # the first attempt's margin
    assert works == [64, 128, 256, 512]
    works.clear()
    assert _escalating(lambda work: (works.append(work), (None, work))[1], 64) == (INDET, 64)
    assert works == [64 << i for i in range(6)]
