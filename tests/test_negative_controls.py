"""Negative controls: linearly dependent families never pass.

xi = [0; a_1, a_2, ...] and 1 - xi = [0; 1, a_1 - 1, a_2, ...] (from
[0; 1, x] = x/(x + 1)) satisfy xi + (1 - xi) - 1 = 0, a sequence and its
div-by-j copy with j = 1 have one limit, and xi and c*xi = [0; a_1/c,
c*a_2, a_3/c, ...] (the equivalence transformation, for a rational c) satisfy
p*xi - q*(c*xi) = 0 for c = p/q.  The checker must reject both
families, through a named hypothesis, and the relation search must find the
relation.  Verdicts and witnesses are asserted, never report digests.
"""

from fractions import Fraction

import pytest

from cfindep import sequences
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, singleton
from cfindep.bigreal.poly import IntPoly
from cfindep.cfcore import enclose_value
from cfindep.criteria import Thm1Config, check_all
from cfindep.numfield import field_new
from cfindep.relation import find_relation
from cfindep.sequences import Decomposition, spec
from enclosing import contains

BASE = spec("doubly-exponential", d=3)


def _whole(quotient):
    """A custom spec of integer quotients, each decomposed as (a*1 + 0)/1."""
    def decomposition(n):
        return Decomposition(int(quotient(n)), Fraction(1), Fraction(0), Fraction(1))
    return spec("custom", fn=quotient, decomp_fn=decomposition)


def _scaled(c: Fraction):
    """c*xi = [0; a_1/c, c*a_2, a_3/c, c*a_4, ...], the equivalence transformation
    of xi; each quotient a_n*f, f = 1/c or c, is decomposed as (a_n*num(f) + 0)/den(f)."""
    def factor(n):
        return 1 / c if n % 2 else c

    def decomposition(n):
        f = factor(n)
        return Decomposition(int(BASE.quotient(n)), Fraction(f.numerator), Fraction(0),
                             Fraction(f.denominator))
    return spec("custom", fn=lambda n: BASE.quotient(n) * factor(n), decomp_fn=decomposition)


XI = _whole(BASE.quotient)
ONE_MINUS_XI = _whole(lambda n: 1 if n == 1 else BASE.quotient(1) - 1 if n == 2 else BASE.quotient(n - 1))
EQUAL = [BASE, spec("div-by-j", base=BASE, j=1)]

# (family, the first condition that fails and its witness, relation found)
CASES = {
    "complement": ([XI, ONE_MINUS_XI], "interleaving", (1,), [1, 1, -1]),
    "complement-reversed": ([ONE_MINUS_XI, XI], "ratio-liminf", (1,), [1, 1, -1]),
    "equal": (EQUAL, "ratio-liminf", (1,), [1, -1, 0]),
}
# p*xi - q*(c*xi) = 0 for c = p/q
for c in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
    p, q = c.numerator, c.denominator
    CASES[f"scaled-{p}-{q}"] = ([XI, _scaled(c)], "ratio-liminf", (1,), [p, -q, 0])
    CASES[f"scaled-{p}-{q}-reversed"] = ([_scaled(c), XI], "ratio-liminf", (1,), [q, -p, 0])


@pytest.mark.parametrize("family", CASES)
def test_dependent_family_fails(family):
    seqs, condition, witness, _ = CASES[family]
    rep = check_all(Thm1Config(sequences=seqs), 6, 128)
    assert rep.overall == "fail"
    failed = [c for c in rep.conditions if c.verdict == "fail"]
    assert [(c.name, c.failing_index) for c in failed] == [(condition, witness)]


@pytest.mark.parametrize("family", CASES)
def test_dependent_family_yields_its_relation(family):
    seqs, _, _, coefficients = CASES[family]
    values = [enclose_value(s, 5, 1024 + 48) for s in seqs]
    res = find_relation(values + [singleton(1)], 100, 1024)
    assert (res.status, res.coefficients) == ("found", coefficients)
    assert contains(res.residual, 0)


SQRT5 = field_new(IntPoly.of(-5, 0, 1), DyadicInterval(Dyadic(2), Dyadic(3)))


@pytest.mark.parametrize("b, verdict, witness", [
    ((Fraction(1, 4), Fraction(1, 4)), "fail", (1, 1)),  # (1 + sqrt 5)/4, not integral
    ((Fraction(1, 2), Fraction(1, 2)), "pass", None),  # the golden ratio, integral
])
def test_decomposition_needs_integral_pieces(monkeypatch, b, verdict, witness):
    """No kind the JSON descriptors reach has a non-integral piece: every kind
    puts its denominators into d.  A test-side kind a_n = 2**(n 3**n) b,
    decomposed as (S b + 0)/1 with S = 2**(n 3**n), agrees with its quotient
    and has a_n >= 1, so only the integrality of b decides."""
    b = SQRT5.element(b)
    monkeypatch.setitem(sequences.KINDS, "sqrt5-scaled", sequences._Kind(
        lambda s, n: (n * 3 ** n, b),
        lambda s, n: Decomposition(2 ** (n * 3 ** n), b, SQRT5.zero(), SQRT5.one())))
    cfg = Thm1Config(sequences=[spec("sqrt5-scaled", field=SQRT5)], field=SQRT5)
    rep = check_all(cfg, 3, 128)
    dec = next(c for c in rep.conditions if c.name == "decomposition")
    assert (dec.verdict, dec.failing_index) == (verdict, witness)
