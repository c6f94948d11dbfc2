from fractions import Fraction

import pytest

from cfindep import sequences
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval
from cfindep.bigreal.poly import IntPoly
from cfindep.cfcore import scalar_at_least_one
from cfindep.criteria import QuotientTable, Thm1Config, check_decomposition
from cfindep.errors import BitBudgetExceeded, RootsNotRealDistinctGreaterOne, UnknownFamily
from cfindep.numfield import FieldElement, field_new, is_algebraic_integer
from cfindep.sequences import (
    divisor_count,
    harmonic,
    nth_prime,
    parse_sequence,
    phi_field,
    polynomial_root_family,
    prime_pi,
    primes_up_to,
    spec,
    sqrt2_field,
    sqrt_j_family,
)
from enclosing import contains


def _trial_division_pi(n):
    count = 0
    for m in range(2, n + 1):
        if all(m % d for d in range(2, int(m ** 0.5) + 1)):
            count += 1
    return count


def _brute_divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_sieve_against_trial_division():
    for n in (10, 100, 541, 1000, 10_000):
        assert prime_pi(n) == _trial_division_pi(n)
    assert prime_pi(10) == 4 and prime_pi(100) == 25
    assert nth_prime(4) == 7
    assert primes_up_to(13)[-1] == 13


def test_divisor_count_brute_force():
    for n in list(range(1, 500)) + [720, 5040, 9999, 10_000]:
        assert divisor_count(n) == _brute_divisors(n)
    assert divisor_count(6) == 4


def test_harmonic_exact():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(10) == sum(Fraction(1, k) for k in range(1, 11))


def _doubly_exponential(d, n, c=1):
    return spec("doubly-exponential", d=d, c=c).quotient(n)


def test_doubly_exponential_values():
    assert _doubly_exponential(3, 1) == 8
    assert _doubly_exponential(3, 2) == 2 ** 18
    assert _doubly_exponential(2, 3) == 2 ** 24
    assert _doubly_exponential(2, 1, c=3) == 2 ** 6
    assert spec("doubly-exponential", d=3).pair(2) == (18, 1)


def test_bit_guard():
    # the guard is a fixed 10**6 bits per quotient
    assert _doubly_exponential(2, 15) == 2 ** (15 * 2 ** 15)  # 491,521 bits
    with pytest.raises(BitBudgetExceeded):
        _doubly_exponential(2, 16)  # 1,048,577 bits
    with pytest.raises(BitBudgetExceeded):
        _doubly_exponential(3, 14)


def test_derived_kind_past_the_guard(monkeypatch):
    # a_16 = 2**(16 * 2**16) / 3: its pair is read without building 2**E, and
    # quotient and decomposition, which build it, refuse it with one message
    s = spec("div-by-j", base=spec("doubly-exponential", d=2), j=3)
    with monkeypatch.context() as m:
        m.setattr(sequences, "_pow2", None)
        assert s.pair(16) == (16 * 2 ** 16, Fraction(1, 3))
    with pytest.raises(BitBudgetExceeded) as quotient:
        s.quotient(16)
    with pytest.raises(BitBudgetExceeded) as decomposition:
        s.decomposition(16)
    assert str(quotient.value) == str(decomposition.value) \
        == "quotient needs 1048577 bits, guard is 1000000"


def test_constant_fields_pass_field_new():
    # sqrt2_field() and phi_field() are built without field_new's checks;
    # run them here on each minimal polynomial with the hint [1, 2]
    for f, minpoly in ((sqrt2_field(), IntPoly.of(-2, 0, 1)), (phi_field(), IntPoly.of(-1, -1, 1))):
        assert f.minpoly == minpoly
        checked = field_new(f.minpoly, DyadicInterval(Dyadic(1), Dyadic(2)))
        assert checked.root_enclosure(64).intersects(f.root_enclosure(64))


def test_prime_ratio_and_hanluc():
    base = spec("doubly-exponential", d=3)
    s = spec("hanluc", j=1, base=base, field=sqrt2_field())
    assert s.quotient(4).coords == (Fraction(0), Fraction(11, 4))  # (1 + 7/4) sqrt2
    assert s.quotient(1).coords == (Fraction(0), Fraction(3))  # 3 sqrt2
    h2 = spec("hanluc", j=2, base=base, field=sqrt2_field()).quotient(1)
    assert h2.coords == (Fraction(0), Fraction(16))  # 8 * 2 * sqrt2
    d = s.decomposition(4)
    assert d.S == 4 + 7 and d.d.as_fraction() == 4
    assert is_algebraic_integer(d.b)


def test_corollary_families():
    base = spec("constant", value=Fraction(4))
    assert spec("div-by-j", base=base, j=2).quotient(2) == 2
    div = spec("div-by-j", base=spec("custom", fn=lambda n: Fraction([3, 4, 5][n - 1])), j=2)
    assert div.quotient(2) == 2
    f = sqrt2_field()
    base3 = spec("doubly-exponential", d=3)
    dv = spec("divisor-sqrt2", field=f, base=base3, variant="d")
    q6 = dv.quotient(6)
    assert q6.coords == (Fraction(0), _doubly_exponential(3, 6) * 4)
    ph = spec("phi-powers", field=phi_field(), base=base3, offset=1)
    q3 = ph.quotient(3)
    phi = phi_field().generator()
    assert ((phi ** 5) * _doubly_exponential(3, 3) - q3).is_zero()


def test_polynomial_root_family_ex1():
    base = spec("doubly-exponential", d=3)
    s = polynomial_root_family(IntPoly.of(14, -8, 1), base)[1]
    q, dec = s.quotient(1), s.decomposition(1)
    # j=2 ascending is 4 + sqrt2; a_1 = 8
    assert dec.S == 8 and dec.c.is_zero() and dec.d.as_fraction() == 1
    assert is_algebraic_integer(dec.b)
    assert contains(q.enclosure(64), Fraction(0)) is False
    assert abs(float(q.enclosure(64).midpoint()) - 8 * 5.41421356) < 1e-4


def test_polynomial_root_family_rejections():
    base = spec("constant", value=Fraction(2))
    with pytest.raises(RootsNotRealDistinctGreaterOne):
        polynomial_root_family(IntPoly.of(2, -3, 1), base)  # root 1 not > 1
    with pytest.raises(RootsNotRealDistinctGreaterOne):
        polynomial_root_family(IntPoly.of(-2, 0, 1), base)  # root -sqrt2 < 1
    with pytest.raises(RootsNotRealDistinctGreaterOne):
        polynomial_root_family(IntPoly.of(4, -4, 1), base)  # double root
    with pytest.raises(RootsNotRealDistinctGreaterOne, match="not monic"):
        polynomial_root_family(IntPoly.of(8, -9, 2), base)  # roots (9 +- sqrt17)/4
    roots_2_to_18 = [1]
    for k in range(2, 19):
        roots_2_to_18 = [a - k * b for a, b in zip([0] + roots_2_to_18, roots_2_to_18 + [0])]
    with pytest.raises(RootsNotRealDistinctGreaterOne, match="degree 17 exceeds 16"):
        polynomial_root_family(IntPoly(tuple(roots_2_to_18)), base)


def test_polynomial_root_family_strips_sign_and_content():
    base = spec("constant", value=Fraction(2))
    monic = polynomial_root_family(IntPoly.of(14, -8, 1), base)
    for p in (IntPoly.of(28, -16, 2), IntPoly.of(-14, 8, -1)):
        fam = polynomial_root_family(p, base)
        assert [s.field.minpoly for s in fam] == [s.field.minpoly for s in monic]
        assert [s.quotient(2).coords for s in fam] == [s.quotient(2).coords for s in monic]


def test_sqrt_j_family():
    base = spec("constant", value=Fraction(5))
    fam = sqrt_j_family(2, base)
    assert len(fam) == 2
    big = fam[0].quotient(3)
    small = fam[1].quotient(3)
    assert (big * big).as_fraction() == 50  # (5 sqrt2)^2
    assert small.as_fraction() == 5
    fam3 = sqrt_j_family(3, base)
    assert fam3[0].field.degree == 4
    v = fam3[0].quotient(1)
    assert (v * v).as_fraction() == 75  # (5 sqrt3)^2


def test_generated_quotients_at_least_one():
    base = spec("doubly-exponential", d=3)
    specs = {
        "hanluc1": spec("hanluc", j=1, base=base, field=sqrt2_field()),
        "hanluc2": spec("hanluc", j=2, base=base, field=sqrt2_field()),
        "divisor": spec("divisor-sqrt2", field=sqrt2_field(), base=base, variant="d"),
        "phi": spec("phi-powers", field=phi_field(), base=base, offset=1),
        "harm": spec("harmonic", base=base, j=1),
        "pi": spec("prime-pi-power", base=base, j=2),
        "div": spec("div-by-j", base=base, j=3),
    }
    for name, s in specs.items():
        for n in range(1, 6):
            assert scalar_at_least_one(s.quotient(n)), (name, n)


def test_determinism():
    base = spec("doubly-exponential", d=3)
    s1 = spec("divisor-sqrt2", field=sqrt2_field(), base=base, variant="1+d")
    s2 = spec("divisor-sqrt2", field=sqrt2_field(), base=base, variant="1+d")
    assert [s1.quotient(n).coords for n in range(1, 6)] == [s2.quotient(n).coords for n in range(1, 6)]


def test_interval_kind():
    # every quotient is exact: no kind yields an interval, and none takes a precision
    with pytest.raises(UnknownFamily, match="unknown sequence kind 'one-plus-over-sqrt'"):
        spec("one-plus-over-sqrt", c=Fraction(2))
    with pytest.raises(TypeError):
        spec("constant", value=Fraction(3)).quotient(4, 96)


def test_unknown_kind_rejected():
    with pytest.raises(UnknownFamily):
        spec("no-such-kind", x=1)


def test_catalog_quotients_at_least_one():
    from cfindep.catalog import build_config, catalog

    for name in catalog():
        cfg = build_config(name)
        for j in range(1, cfg.M + 1):
            for n in range(1, 5):
                assert scalar_at_least_one(cfg.sequences[j - 1].quotient(n)), (name, n, j)


BASE_SCALED = {
    "div-by-j": lambda base: spec("div-by-j", base=base, j=2),
    "harmonic": lambda base: spec("harmonic", base=base, j=2),
    "prime-pi-power": lambda base: spec("prime-pi-power", base=base, j=2),
    "divisor-sqrt2": lambda base: spec("divisor-sqrt2", field=sqrt2_field(), base=base,
                                       variant="1+d"),
    "phi-powers": lambda base: spec("phi-powers", field=phi_field(), base=base, offset=1),
    "root-scaled": lambda base: polynomial_root_family(IntPoly.of(14, -8, 1), base)[1],
    "sqrt-j-scaled": lambda base: sqrt_j_family(3, base)[1],
    "hanluc": lambda base: spec("hanluc", j=2, base=base, field=sqrt2_field()),
}


@pytest.mark.parametrize("kind", sorted(BASE_SCALED))
def test_rational_base_decomposes(kind):
    # a_n = 5/2 scales the unit-base quotient by 5/2, and S*b/d recomposes it
    s = BASE_SCALED[kind](spec("constant", value=Fraction(5, 2)))
    unit = BASE_SCALED[kind](spec("constant", value=Fraction(1)))
    cfg = Thm1Config(M=1, sequences=[s], field=s.field)

    def coords(x):
        return x.coords if isinstance(x, FieldElement) else x

    for n in range(1, 5):
        assert coords(s.quotient(n)) == coords(unit.quotient(n) * Fraction(5, 2)), n
        assert check_decomposition(QuotientTable(cfg), n, 1) == "pass", n


# the JSON descriptor of each BASE_SCALED spec, less its base
BASE_SCALED_JSON = {
    "div-by-j": {"j": 2},
    "harmonic": {"j": 2},
    "prime-pi-power": {"j": 2},
    "divisor-sqrt2": {"variant": "1+d"},
    "phi-powers": {"offset": 1},
    "root-scaled": {"poly": [14, -8, 1], "root_index": 2},
    "sqrt-j-scaled": {"K": 3, "j": 2},
    "hanluc": {"j": 2},
}


@pytest.mark.parametrize("kind", sorted(BASE_SCALED))
def test_interval_base_rejected_in_code_and_json(kind):
    # the interval-valued kind is gone, as a base too
    message = "unknown sequence kind 'one-plus-over-sqrt'"
    with pytest.raises(UnknownFamily, match=message):
        BASE_SCALED[kind](spec("one-plus-over-sqrt", c=Fraction(3)))
    desc = {"kind": kind, **BASE_SCALED_JSON[kind], "base": {"kind": "one-plus-over-sqrt", "c": "3"}}
    with pytest.raises(UnknownFamily, match=message):
        parse_sequence(desc)
    desc["base"] = {"kind": "constant", "value": "5/2"}
    assert parse_sequence(desc).kind == kind  # the same descriptor with an exact base


@pytest.mark.parametrize("j", [-1, -2])
def test_prime_pi_power_negative_j_decomposes(j):
    # a_n = b_n (n/(n + pi(n)))^|j|: S = b_n n^|j| and d = (n + pi(n))^|j| stay integers
    s = spec("prime-pi-power", base=spec("doubly-exponential", d=2), j=j)
    cfg = Thm1Config(M=1, sequences=[s])
    for n in range(1, 5):
        assert type(s.decomposition(n).S) is int
        assert check_decomposition(QuotientTable(cfg), n, 1) == "pass", n
