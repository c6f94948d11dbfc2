import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import from_fraction, iv_add, iv_mul, iv_sqrt, singleton
from cfindep.bigreal.poly import IntPoly
from cfindep.errors import PrecisionTooLow, RankDeficient
from cfindep.numfield import field_new
from cfindep.relation import (
    LLL_DELTA,
    _normalize,
    find_relation,
    find_relation_over_field,
    lll_reduce,
    none_wording,
)
from cfindep.bigreal.interval import DyadicInterval
from cfindep.sequences import sqrt2_field


def test_lll_trivial_cases():
    assert lll_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert lll_reduce([[3, 7, 1]]) == [[3, 7, 1]]


def test_lll_short_vector_bound():
    rows = [[1, 10**9], [0, 1]]
    red = lll_reduce(rows)
    # det = 1; ||b1|| <= 2^((k-1)/2) * det^(1/k) = sqrt(2)
    norm1 = sum(c * c for c in red[0])
    assert norm1 <= 2


def test_lll_rank_deficient():
    with pytest.raises(RankDeficient):
        lll_reduce([[1, 2], [2, 4]])


def test_lll_invariants_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
        try:
            red = lll_reduce(rows)
        except RankDeficient:
            continue
        # a unimodular transform maps input to output
        u = _transform(rows, red)
        assert _mat_mul(u, rows) == red and _int_det(u) in (1, -1)
        _lll_conditions_exact(red)


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_find_relation_trivial_identity():
    p = 128
    r2 = iv_sqrt(singleton(2), p + 48)
    v3 = iv_add(singleton(1), r2, p + 48)
    res = find_relation([singleton(1), r2, v3], 100, p)
    assert res.found and res.coefficients == [1, 1, -1]
    assert res.residual.contains_zero()
    assert res.residual.width().as_fraction() < Fraction(1, 2 ** (p // 2))


def test_find_relation_planted_golden():
    # values (alpha, 2 alpha + 3, 1) for alpha = [0;1,1,1,...] -> (2, -1, 3)
    from cfindep.cfcore import enclose_value
    from cfindep.sequences import spec

    p = 128
    enc = enclose_value(spec("constant", value=Fraction(1)), 95, p + 48).value
    two_a_three = iv_add(iv_mul(singleton(2), enc, p + 48), singleton(3), p + 48)
    res = find_relation([enc, two_a_three, singleton(1)], 100, p)
    assert res.found and res.coefficients == [2, -1, 3]


def test_find_relation_no_false_positive():
    rng = random.Random(300)
    vals = [from_fraction(Fraction(rng.getrandbits(280), 2 ** 280), 280) for _ in range(5)]
    res = find_relation(vals, 100, 256)
    assert res.status == "none_below_height"
    assert res.statement == none_wording(100, 256)


def test_find_relation_precision_guard():
    wide = DyadicInterval(Dyadic(0), Dyadic(1))
    with pytest.raises(PrecisionTooLow):
        find_relation([wide, singleton(1)], 10, 64)


def test_scale_robustness():
    # doubling P never flips found -> none for a planted relation
    rng = random.Random(31)
    exact = [Fraction(rng.getrandbits(600), 2 ** 600) for _ in range(3)]
    v4 = 5 * exact[0] - 9 * exact[1] + exact[2]
    vals = [from_fraction(x, 640) for x in exact] + [from_fraction(v4, 640)]
    r1 = find_relation(vals, 100, 256)
    r2 = find_relation(vals, 100, 512)
    assert r1.found and r2.found
    # both must be the same true relation up to sign normalization
    assert r1.coefficients == r2.coefficients == [5, -9, 1, -1]


def test_find_relation_over_field_planted():
    K = sqrt2_field()
    rng = random.Random(77)
    alpha = Fraction(rng.getrandbits(300), 2 ** 300)
    a_iv = from_fraction(alpha, 340)
    r2a = iv_mul(a_iv, K.root_enclosure(340), 340)
    res = find_relation_over_field([a_iv, r2a, singleton(1)], K, 100, 256)
    assert res.found
    # verify it is a true relation of (alpha, sqrt2 alpha, 1) over K:
    # sum_j A_j * v_j must be exactly zero, i.e. both power-basis coordinates
    # of (A1 + A2*sqrt2-part...) cancel. Work symbolically: v = (alpha, s*alpha, 1)
    a1, a2, a3, a0 = res.k_coefficients
    # value = a1*alpha + a2*(sqrt2 alpha) + a3*1 + a0 ... evaluate as element of K
    s = K.generator()
    total = a1 * alpha + a2 * s * alpha + a3 + a0
    assert total.is_zero()


def test_find_relation_over_field_d1_reduces():
    # a degree-1 field behaves exactly like the plain search with a constant 1
    k1 = field_new(IntPoly.of(0, 1), DyadicInterval(Dyadic(-1), Dyadic(1)))
    rng = random.Random(13)
    exact = [Fraction(rng.getrandbits(300), 2 ** 300) for _ in range(2)]
    planted = 7 * exact[0] - 4 * exact[1]  # = 7 v1 - 4 v2 - 1 * planted
    vals = [from_fraction(x, 340) for x in exact] + [from_fraction(planted, 340)]
    res_field = find_relation_over_field(vals, k1, 100, 256)
    res_plain = find_relation(vals + [singleton(1)], 100, 256)
    assert res_field.status == res_plain.status == "found"
    assert res_field.coefficients == res_plain.coefficients


def test_planted_recovery_batch():
    rng = random.Random(8)
    for trial in range(10):
        m = rng.randint(3, 6)
        exact = [Fraction(rng.getrandbits(300), 2 ** 300) for _ in range(m - 1)]
        coeffs = [rng.randint(-10, 10) or 1 for _ in range(m - 1)]
        target = sum(c * x for c, x in zip(coeffs, exact))
        vals = [from_fraction(x, 340) for x in exact] + [from_fraction(target, 340)]
        res = find_relation(vals, 100, 256)
        assert res.found, trial
        got = res.coefficients
        lhs = sum(c * x for c, x in zip(got[:-1], exact)) + got[-1] * target
        assert lhs == 0  # exact true relation


def test_lll_shortest_vector_quality_bruteforce():
    # in dimension 2-3 compare against exhaustive search over small combos:
    # ||b1||^2 <= 2^(n-1) * ||shortest||^2
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(2, 3)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        try:
            red = lll_reduce(rows)
        except RankDeficient:
            continue
        best = None
        R = 6
        import itertools

        for combo in itertools.product(range(-R, R + 1), repeat=n):
            if all(c == 0 for c in combo):
                continue
            v = [sum(c * rows[i][j] for i, c in enumerate(combo)) for j in range(n)]
            norm = sum(x * x for x in v)
            best = norm if best is None or norm < best else best
        norm1 = sum(x * x for x in red[0])
        assert norm1 <= 2 ** (n - 1) * best


def test_lll_stress_bigger_entries():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(2, 6)
        rows = [[rng.getrandbits(64) - 2 ** 63 for _ in range(n + 1)] for _ in range(n)]
        try:
            red = lll_reduce(rows)
        except RankDeficient:
            continue
        u = _transform(rows, red)
        assert _mat_mul(u, rows) == red and _int_det(u) in (1, -1)
        _lll_conditions_exact(red)


# ---------------------------------------------------------------------------
# differential oracles
# ---------------------------------------------------------------------------

def _lll_conditions_exact(rows):
    """Size reduction and the Lovasz condition at LLL_DELTA, in integers.

    With the Gram matrix G, d_i is the leading i x i minor of G and
    lambda_{i,j} = d_{j+1} mu_{i,j} is the minor on rows 0..j-1, i and
    columns 0..j; both are computed by Bareiss, not by the reduction's code.
    """
    n = len(rows)
    gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    d = [1] + [_int_det([row[:i] for row in gram[:i]]) for i in range(1, n + 1)]

    def lam(i, j):
        return _int_det([gram[k][:j + 1] for k in list(range(j)) + [i]])

    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    for i in range(n):
        for j in range(i):
            assert 2 * abs(lam(i, j)) <= d[j + 1], "size reduction violated"
    for k in range(1, n):
        lk = lam(k, k - 1)
        assert den * (d[k + 1] * d[k - 1] + lk * lk) >= num * d[k] * d[k], "Lovasz violated"


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transform(rows, red):
    """The U with U * rows = red, solved exactly as red B^T (B B^T)^-1 for the
    full-rank rows B; asserts that U is an integer matrix."""
    n, width = len(rows), len(rows[0])
    b = DomainMatrix(rows, (n, width), ZZ).convert_to(QQ)
    r = DomainMatrix(red, (n, width), ZZ).convert_to(QQ)
    u = (r * b.transpose() * (b * b.transpose()).inv()).to_Matrix().tolist()
    assert all(x.q == 1 for row in u for x in row)
    return [[int(x) for x in row] for row in u]


@st.composite
def _bases(draw):
    n = draw(st.integers(2, 6))
    width = n + draw(st.integers(0, 1))
    bits = draw(st.sampled_from([4, 12, 20]))  # sympy's lll fails its own size check near 2**52
    entry = st.integers(-(2 ** bits), 2 ** bits)
    return [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(_bases())
def test_lll_matches_sympy_lattice(rows):
    try:
        red = lll_reduce(rows)
    except RankDeficient:
        assume(False)
    u = _transform(rows, red)
    n, width = len(rows), len(rows[0])
    theirs, t = DomainMatrix(rows, (n, width), ZZ).lll_transform(delta=QQ(99, 100))
    theirs, t = theirs.to_Matrix().tolist(), t.to_Matrix().tolist()
    # both are unimodular images of the input rows, so they span its lattice
    assert _mat_mul(u, rows) == red and _int_det(u) in (1, -1)
    assert _mat_mul(t, rows) == theirs and _int_det(t) in (1, -1)

    def gram_det(m):
        return _int_det(_mat_mul(m, [list(c) for c in zip(*m)]))

    assert gram_det(red) == gram_det(theirs) == gram_det(rows)
    _lll_conditions_exact(red)


def test_lll_conditions_exact_on_relation_lattices():
    # the scaled-value lattice of find_relation at 1024 bits, reduced
    rng = random.Random(99)
    for m in (3, 5, 7):
        x = [rng.getrandbits(1024) for _ in range(m)]
        rows = [[1 if i == j else 0 for j in range(m)] + [x[i]] for i in range(m)]
        _lll_conditions_exact(lll_reduce(rows))


def _planted_values(m, precision, seed):
    rng = random.Random(seed)
    bits = precision + 64
    exact = [Fraction(rng.getrandbits(bits), 2 ** bits) for _ in range(m - 1)]
    coeffs = [rng.randint(-60, 60) or 1 for _ in range(m - 1)]
    target = sum(c * x for c, x in zip(coeffs, exact))
    return [from_fraction(x, bits) for x in exact + [target]]


def _pslq(values, height, precision):
    mpmath.mp.prec = precision
    xs = [mpmath.mpf((v.midpoint().man, v.midpoint().exp)) for v in values]
    rel = mpmath.pslq(xs, tol=mpmath.mpf(2) ** -(precision // 2), maxcoeff=height,
                      maxsteps=10 ** 5)
    return None if rel is None else _normalize([int(c) for c in rel])


@pytest.mark.parametrize("m,precision", [(3, 256), (4, 1024), (5, 2048), (6, 2048),
                                         (4, 4096), (6, 4096)])
def test_find_relation_agrees_with_pslq(m, precision):
    old_prec = mpmath.mp.prec
    try:
        planted = _planted_values(m, precision, 7 * m + precision)
        res = find_relation(planted, 100, precision)
        assert res.found and res.coefficients == _pslq(planted, 100, precision)
        rng = random.Random(precision - m)
        free = [from_fraction(Fraction(rng.getrandbits(precision + 64), 2 ** (precision + 64)),
                              precision + 64) for _ in range(m)]
        res = find_relation(free, 100, precision)
        assert not res.found and _pslq(free, 100, precision) is None
    finally:
        mpmath.mp.prec = old_prec
