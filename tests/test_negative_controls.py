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

from cfindep.bigreal.interval import singleton
from cfindep.cfcore import enclose_value
from cfindep.criteria import Thm1Config, check_all
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
    rep = check_all(Thm1Config(M=2, sequences=seqs), 6, 128)
    assert rep.overall == "fail"
    failed = [c for c in rep.conditions if c.verdict == "fail"]
    assert [(c.name, c.failing_index) for c in failed] == [(condition, witness)]


@pytest.mark.parametrize("family", CASES)
def test_dependent_family_yields_its_relation(family):
    seqs, _, _, coefficients = CASES[family]
    values = [enclose_value(s, 5, 1024 + 48).value for s in seqs]
    res = find_relation(values + [singleton(1)], 100, 1024)
    assert (res.status, res.coefficients) == ("found", coefficients)
    assert contains(res.residual, 0)
