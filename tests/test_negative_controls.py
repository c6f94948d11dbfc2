"""Negative controls: linearly dependent families never pass.

xi = [0; a_1, a_2, ...] and 1 - xi = [0; 1, a_1 - 1, a_2, ...] (from
[0; 1, x] = x/(x + 1)) satisfy xi + (1 - xi) - 1 = 0, and a sequence and its
div-by-j copy with j = 1 have one limit.  The checker must reject both
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

BASE = spec("doubly-exponential", d=3)


def _whole(quotient):
    """A custom spec of integer quotients, each decomposed as (a*1 + 0)/1."""
    def decomposition(n):
        return Decomposition(int(quotient(n)), Fraction(1), Fraction(0), Fraction(1))
    return spec("custom", fn=quotient, decomp_fn=decomposition)


XI = _whole(BASE.quotient)
ONE_MINUS_XI = _whole(lambda n: 1 if n == 1 else BASE.quotient(1) - 1 if n == 2 else BASE.quotient(n - 1))
EQUAL = [BASE, spec("div-by-j", base=BASE, j=1)]

# (family, the first condition that fails and its witness, relation found)
CASES = {
    "complement": ([XI, ONE_MINUS_XI], "interleaving", (1,), [1, 1, -1]),
    "complement-reversed": ([ONE_MINUS_XI, XI], "ratio-liminf", (1,), [1, 1, -1]),
    "equal": (EQUAL, "ratio-liminf", (1,), [1, -1, 0]),
}


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
    assert res.residual.contains(0)
