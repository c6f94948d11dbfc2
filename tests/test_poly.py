import inspect
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from cfindep.bigreal import poly
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import (
    DyadicInterval,
    from_fraction,
    iv_add,
    iv_div,
    iv_mul,
    iv_sub,
    singleton,
)
from cfindep.bigreal.poly import (
    IntPoly,
    SturmChain,
    _aberth_roots,
    _sign_at,
    factor_with_roots,
    isolate_real_roots,
    refine_root,
)
from cfindep.errors import NoSignChange, NonConvergent, NotSquarefree
from enclosing import contains


def _quadratic_roots_oracle(b: int, c: int):
    """Exact rational brackets for roots of x^2 + b x + c via isqrt."""
    disc = b * b - 4 * c
    assert disc > 0
    s = math.isqrt(disc)
    lo_s, hi_s = Fraction(s), Fraction(s + 1)
    return (
        (Fraction(-b) - hi_s) / 2, (Fraction(-b) - lo_s) / 2,
        (Fraction(-b) + lo_s) / 2, (Fraction(-b) + hi_s) / 2,
    )


def _squarefree(p: IntPoly) -> bool:
    try:
        SturmChain(p)
    except NotSquarefree:
        return False
    return True


def test_sturm_examples():
    p = IntPoly.of(-2, 0, 1)
    assert SturmChain(p).count(DyadicInterval(Dyadic(0), Dyadic(2))) == 1
    assert SturmChain(p).count(DyadicInterval(Dyadic(-2), Dyadic(2))) == 2
    # roots of x^2 - 8x + 14 are 4 +/- sqrt 2 (quadratic formula oracle)
    q = IntPoly.of(14, -8, 1)
    r1lo, r1hi, r2lo, r2hi = _quadratic_roots_oracle(-8, 14)
    assert 0 < r1lo and r2hi < 10
    assert SturmChain(q).count(DyadicInterval(Dyadic(0), Dyadic(10))) == 2


def test_sturm_requires_squarefree():
    with pytest.raises(NotSquarefree):
        SturmChain(IntPoly.of(1, 2, 1))
    assert _squarefree(IntPoly.of(-2, 0, 1))
    assert not _squarefree(IntPoly.of(1, 2, 1))


def test_refine_root_sqrt2():
    p = IntPoly.of(-2, 0, 1)
    iv = refine_root(p, DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -40))
    assert iv.width().as_fraction() <= Fraction(1, 2**40)
    lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
    assert lo * lo <= 2 <= hi * hi
    assert Fraction(1) <= lo and hi <= Fraction(2)


def test_refine_root_golden_ratio():
    p = IntPoly.of(-1, -1, 1)
    iv = refine_root(p, DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -40))
    phi = iv.midpoint().as_fraction()
    assert abs(phi * phi - phi - 1) < Fraction(1, 2**35)


def test_refine_root_ex1_polynomial():
    # smaller root of x^2 - 8x + 14 is 4 - sqrt2, bracketed by the oracle
    p = IntPoly.of(14, -8, 1)
    r1lo, r1hi, _, _ = _quadratic_roots_oracle(-8, 14)
    iv = refine_root(p, DyadicInterval(Dyadic(2), Dyadic(3)), Dyadic(1, -40))
    assert r1lo - 1 <= iv.lo.as_fraction() <= iv.hi.as_fraction() <= r1hi + 1
    v = iv.midpoint().as_fraction()
    assert abs(v * v - 8 * v + 14) < Fraction(1, 2**35)


def test_refine_root_stays_inside_and_signs():
    p = IntPoly.of(-2, 0, 1)
    src = DyadicInterval(Dyadic(1), Dyadic(2))
    iv = refine_root(p, src, Dyadic(1, -60))
    assert src.contains_interval(iv)
    assert p.eval_dyadic(iv.lo).sign() * p.eval_dyadic(iv.hi).sign() < 0


def test_refine_root_no_sign_change():
    with pytest.raises(NoSignChange):
        refine_root(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(2), Dyadic(3)), Dyadic(1, -10))


def test_isolate_real_roots():
    p = IntPoly.of(14, -8, 1)
    roots = isolate_real_roots(p)
    assert len(roots) == 2
    assert roots[0].hi.as_fraction() <= roots[1].lo.as_fraction()
    cube = IntPoly.of(-2, 0, 0, 1)
    assert len(isolate_real_roots(cube)) == 1
    assert isolate_real_roots(IntPoly.of(1, 0, 1)) == []


def _mantissa_bits(iv: DyadicInterval) -> int:
    return max(iv.lo.man.bit_length(), iv.hi.man.bit_length())


def _squarefree_low_degree():
    coeffs = st.tuples(st.lists(st.integers(-20, 20), min_size=2, max_size=4), st.integers(1, 4))
    return coeffs.map(lambda c: IntPoly(tuple(c[0]) + (c[1],))).filter(_squarefree)


def _assert_refined_against_mpmath(p: IntPoly, bits: int) -> None:
    """Every real root refined to width 2^-bits contains mpmath's root at 4x
    the precision, and its endpoints carry at most bits + 64 mantissa bits."""
    isolated = isolate_real_roots(p)
    with mpmath.workprec(4 * bits + 64):
        roots = mpmath.polyroots(p.coeffs[::-1], maxsteps=400, extraprec=4 * bits)
        eps = mpmath.ldexp(1, -3 * bits)  # far below the width, far above mpmath's error
        real = sorted(z.real for z in roots if abs(z.imag) < eps)
        assert len(real) == len(isolated)
        target = Dyadic(1, -bits)
        for iv, root in zip(isolated, real):
            got = refine_root(p, iv, target)
            assert got.width() <= target and iv.contains_interval(got)
            lo = mpmath.ldexp(got.lo.man, got.lo.exp)
            hi = mpmath.ldexp(got.hi.man, got.hi.exp)
            assert lo - eps <= root <= hi + eps
            assert _mantissa_bits(got) <= bits + 64


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6).map(lambda c: IntPoly(tuple(c) + (1,))),
       st.sampled_from([8, 64, 300, 1024]))
@example(IntPoly.of(-2, 0, 0, 0, 0, 0, 1), 1024)
@example(IntPoly.of(-1, -1, 1), 1024)
@example(IntPoly.of(0, -4, 0, 1), 300)  # the root 0 is exact
def test_refine_root_matches_mpmath_with_bounded_mantissas(p, bits):
    # monic, degree up to 6
    assume(_squarefree(p) and isolate_real_roots(p))
    _assert_refined_against_mpmath(p, bits)


@settings(max_examples=20, deadline=None)
@given(_squarefree_low_degree(), st.sampled_from([8, 64, 512, 4096]))
@example(IntPoly.of(14, -8, 1), 4096)
@example(IntPoly.of(-2, 0, 0, 3), 4096)
def test_refine_root_endpoints_follow_the_target(p, bits):
    # degree 2-4, leading coefficient 1-4: the Newton precision is capped at
    # the target's bits plus a guard, so no endpoint is much longer than that
    assume(isolate_real_roots(p))
    _assert_refined_against_mpmath(p, bits)


def test_refine_root_ex1_field_at_33297_bits():
    # the width an ex1 enclose at N = 6 and 1024 bits asks of its field; the
    # roots of x^2 - 8x + 14 are 4 -+ sqrt 2
    p, bits = IntPoly.of(14, -8, 1), 33297
    target = Dyadic(1, -bits)
    with mpmath.workprec(4 * bits):
        for iv, root in zip(isolate_real_roots(p), (4 - mpmath.sqrt(2), 4 + mpmath.sqrt(2))):
            got = refine_root(p, iv, target)
            assert got.width() <= target and iv.contains_interval(got)
            assert mpmath.ldexp(got.lo.man, got.lo.exp) <= root <= mpmath.ldexp(got.hi.man, got.hi.exp)
            assert _mantissa_bits(got) <= bits + 64


def test_refine_root_sextic_at_1024_bits_is_fast():
    # the two real roots of x^6 - 2: before the Newton precision followed the
    # width's leading bit, this took over a minute and 10^6-bit endpoints
    p = IntPoly.of(-2, 0, 0, 0, 0, 0, 1)
    t0 = time.perf_counter()
    roots = [refine_root(p, iv, Dyadic(1, -1024)) for iv in isolate_real_roots(p)]
    assert time.perf_counter() - t0 < 5
    assert len(roots) == 2 and all(_mantissa_bits(iv) <= 2 * 1024 + 64 for iv in roots)


def _object_horner(coeffs, x, work):
    acc = singleton(0)
    for c in reversed(coeffs):
        acc = iv_add(iv_mul(acc, x, work), singleton(c), work)
    return acc


_signed_dyadics = st.builds(Dyadic, st.integers(-(2 ** 40), 2 ** 40), st.integers(-40, 4))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7), _signed_dyadics, _signed_dyadics,
       st.integers(4, 300))
@example([1, -1, 1], Dyadic(-3, -2), Dyadic(5, -2), 4)  # x and the accumulator straddle 0
def test_pair_horner_matches_interval_horner(coeffs, a, b, work):
    lo, hi = min(a, b), max(a, b)
    a1, f1, a2, f2 = poly._pair_eval_interval(tuple(coeffs), lo.man, lo.exp, hi.man, hi.exp, work)
    ref = _object_horner(coeffs, DyadicInterval(lo, hi), work)
    assert DyadicInterval(Dyadic(a1, f1), Dyadic(a2, f2)) == ref


# Reference refinement: refine_root's loop with every step a Dyadic or an
# interval operation.  The kernel on (mantissa, exponent) int pairs must
# return the same endpoints, bit for bit.
def _object_refine_root(p, isolating, target_width):
    lo, hi = isolating.lo, isolating.hi
    s_lo = p.eval_dyadic(lo).sign()
    s_hi = p.eval_dyadic(hi).sign()
    if s_lo == 0:
        return DyadicInterval(lo, lo)
    if s_hi == 0:
        return DyadicInterval(hi, hi)
    if s_lo == s_hi:
        raise NoSignChange(f"no sign change of {p!r} across {isolating!r}")
    if target_width.sign() <= 0:
        raise ValueError("target width must be positive")
    target_bits = max(8, -target_width.exp + target_width.man.bit_length())
    cap = 64 + 10 * target_bits
    dp = p.derivative().coeffs
    steps = 0
    while (hi - lo) > target_width:
        if steps > cap:
            raise NonConvergent(f"root refinement exceeded {cap} iterations")
        steps += 1
        mid = (lo + hi).scaled(-1)
        width = hi - lo
        work = max(64, min(8 - 2 * (width.exp + width.man.bit_length()), target_bits + 32))
        newton_done = False
        dpi = _object_horner(dp, DyadicInterval(lo, hi), work)
        if not dpi.contains_zero():
            pm = p.eval_dyadic(mid)
            step = iv_div(DyadicInterval(pm, pm), dpi, work)
            cand = iv_sub(DyadicInterval(mid, mid), step, work)
            new_lo = max(lo, cand.lo)
            new_hi = min(hi, cand.hi)
            if new_lo <= new_hi and (new_hi - new_lo) < (hi - lo):
                t_lo = p.eval_dyadic(new_lo).sign()
                t_hi = p.eval_dyadic(new_hi).sign()
                if t_lo == 0:
                    return DyadicInterval(new_lo, new_lo)
                if t_hi == 0:
                    return DyadicInterval(new_hi, new_hi)
                if t_lo != t_hi:
                    lo, hi, s_lo, s_hi = new_lo, new_hi, t_lo, t_hi
                    newton_done = True
        if not newton_done:
            sm = p.eval_dyadic(mid).sign()
            if sm == 0:
                return DyadicInterval(mid, mid)
            if sm == s_lo:
                lo, s_lo = mid, sm
            else:
                hi, s_hi = mid, sm
    return DyadicInterval(lo, hi)


def _same_endpoints(p, isolating, target):
    got = poly._refine_root.__wrapped__(p, isolating, target)  # the kernel, memo-free
    ref = _object_refine_root(p, isolating, target)
    assert (got.lo.man, got.lo.exp, got.hi.man, got.hi.exp) == \
        (ref.lo.man, ref.lo.exp, ref.hi.man, ref.hi.exp)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(-30, 30), min_size=d, max_size=d)),
       st.sampled_from((1, 1, 2, 3, -1)), st.integers(8, 4096), st.integers(1, 7))
@example([14, -8], 1, 4096, 1)
@example([0, -4, 0], 1, 300, 1)  # the root 0 is exact
@example([-2, 0, 0, 0, 0, 0], 1, 1024, 1)
@example([-1, 3, 3, -4, -1], 1, 2112, 3)
def test_integer_refine_root_matches_object_loop(low, lead, bits, odd):
    p = IntPoly(tuple(low) + (lead,))
    assume(_squarefree(p))
    for iv in isolate_real_roots(p):
        _same_endpoints(p, iv, Dyadic(odd, -bits))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=7),
       st.tuples(st.integers(-200, 200), st.integers(0, 6)),
       st.tuples(st.integers(-200, 200), st.integers(0, 6)),
       st.integers(8, 700))
def test_integer_refine_root_matches_object_loop_on_any_bracket(coeffs, a, b, bits):
    # brackets that hold several roots, straddle 0 or hold no sign change
    # at all: the same endpoint or the same exception
    p = IntPoly(tuple(coeffs))
    lo, hi = Dyadic(a[0], -a[1]), Dyadic(b[0], -b[1])
    assume(p.degree() >= 1 and lo < hi)
    target = Dyadic(1, -bits)
    try:
        ref = _object_refine_root(p, DyadicInterval(lo, hi), target)
    except (NoSignChange, NonConvergent) as e:
        with pytest.raises(type(e)):
            poly._refine_root.__wrapped__(p, DyadicInterval(lo, hi), target)
        return
    assert poly._refine_root.__wrapped__(p, DyadicInterval(lo, hi), target) == ref


def test_integer_refine_root_matches_object_loop_for_the_ex1_field():
    # the 33297-bit width an ex1 enclose at N = 6 and 1024 bits asks of its field
    p = IntPoly.of(14, -8, 1)
    for iv in isolate_real_roots(p):
        _same_endpoints(p, iv, Dyadic(1, -33297))


def test_refine_root_memo_contract():
    # a plain function, so the benchmark's tracer wraps it; the memo behind
    # it is bounded, and a hit returns what a cold refinement returns
    assert inspect.isfunction(refine_root) and "refine_root" in poly.__all__
    memo = poly._refine_root
    assert memo.cache_info().maxsize == 1024
    p = IntPoly.of(-3, 0, 1)
    iv = isolate_real_roots(p)[1]
    memo.cache_clear()
    cold = refine_root(p, iv, Dyadic(1, -500))
    assert refine_root(p, iv, Dyadic(1, -500)) == cold == memo.__wrapped__(p, iv, Dyadic(1, -500))
    assert memo.cache_info().hits == 1
    for k in range(1100):
        refine_root(p, iv, Dyadic(2 * k + 1, -40))
    assert memo.cache_info().currsize == 1024


def test_interval_evaluation_contains_exact():
    # the Horner kernel behind refine_root's Newton steps, on int pairs
    p = IntPoly.of(14, -8, 1)
    for lo, hi in ((Fraction(5, 2), Fraction(5, 2)), (Fraction(-3, 4), Fraction(7, 8)),
                   (Fraction(-9, 2), Fraction(-1, 3))):
        x = DyadicInterval(from_fraction(lo, 96).lo, from_fraction(hi, 96).hi)
        a1, f1, a2, f2 = poly._pair_eval_interval(p.coeffs, x.lo.man, x.lo.exp, x.hi.man, x.hi.exp, 96)
        v = DyadicInterval(Dyadic(a1, f1), Dyadic(a2, f2))
        for point in (x.lo, x.hi, x.midpoint()):
            assert contains(v, p.eval_dyadic(point))


def test_refine_root_against_numpy_roots():
    import numpy as np
    import random

    rng = random.Random(55)
    for _ in range(40):
        deg = rng.randint(2, 4)
        while True:
            coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
            p = IntPoly(tuple(coeffs))
            if _squarefree(p):
                break
        true_roots = sorted(z.real for z in np.roots(list(reversed(coeffs)))
                            if abs(z.imag) < 1e-9)
        isolated = isolate_real_roots(p)
        assert len(isolated) == len(true_roots)
        for iv, r in zip(isolated, true_roots):
            tight = refine_root(p, iv, Dyadic(1, -60))
            assert float(tight.lo) - 1e-6 <= r <= float(tight.hi) + 1e-6


# -- factoring over Z against sympy ------------------------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors) -> IntPoly:
    p = [1]
    for f in factors:
        p = _mul(p, list(f))
    return IntPoly(tuple(p))


def _sympy_factors(p: IntPoly) -> list[IntPoly]:
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ").factor_list()
    assert all(mult == 1 for _, mult in factors)
    out = [IntPoly(tuple(int(c) for c in reversed(f.all_coeffs()))) for f, _ in factors]
    return sorted(out, key=lambda f: (f.degree(), f.coeffs))


@st.composite
def _monic_products(draw, max_degree):
    """Products of random monic factors, total degree 1..max_degree."""
    left = draw(st.integers(1, max_degree))
    factors = []
    while left:
        k = draw(st.integers(1, left))
        factors.append(draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k)) + [1])
        left -= k
    return _product(factors)


# totally real irreducibles: 2cos(2pi/7), 2cos(2pi/9), sqrt2 + sqrt3,
# sqrt(2 + sqrt2), 2cos(2pi/11)
_TOTALLY_REAL = ((-1, -2, 1, 1), (1, -3, 0, 1), (1, 0, -10, 0, 1), (2, 0, -4, 0, 1),
                 (-1, 3, 3, -4, -1, 1))


def _shifted(f, s):
    """f(x - s)."""
    out = [0]
    for c in reversed(f):
        out = _mul(out, [-s, 1])
        out[0] += c
    return out


_REAL_FACTOR = st.one_of(
    st.builds(lambda a: [-a, 1], st.integers(-9, 9)),
    st.builds(lambda b, c: [c, b, 1], st.integers(-9, 9), st.integers(-20, 20))
    .filter(lambda f: f[1] ** 2 > 4 * f[0]),
    st.builds(_shifted, st.sampled_from(_TOTALLY_REAL), st.integers(-3, 3)),
)


@st.composite
def _totally_real_products(draw, max_degree):
    factors, degree = [], 0
    for f in draw(st.lists(_REAL_FACTOR, min_size=1, max_size=8)):
        if degree + len(f) - 1 <= max_degree:
            factors.append(f)
            degree += len(f) - 1
    return _product(factors)


@settings(max_examples=60, deadline=None)
@given(_monic_products(8))
@example(IntPoly.of(-2, 0, 0, 1))
@example(IntPoly.of(1, 0, 0, 0, 1))  # x^4 + 1: irreducible, reducible mod every prime
@example(_product([[2, 0, 1], [3, 0, 1]]))  # two pairs, no real root
@example(IntPoly.of(40, 42, -125, 133, -87, 33, -9, 1))  # a real root of 5 far from the rest
@example(IntPoly.of(-100548, 11668, 42077, 3695, 107, 1))  # Newton refinement took minutes
def test_factors_match_sympy(p):
    assume(_squarefree(p))
    assert factor_with_roots(p, isolate_real_roots(p)) == _sympy_factors(p)


@settings(max_examples=20, deadline=None)
@given(_totally_real_products(16))
@example(_product([_TOTALLY_REAL[2], _TOTALLY_REAL[3], _shifted(_TOTALLY_REAL[2], 1),
                   _shifted(_TOTALLY_REAL[3], -2)]))
def test_totally_real_factors_match_sympy(p):
    assume(_squarefree(p))
    assert factor_with_roots(p, isolate_real_roots(p)) == _sympy_factors(p)


def test_factoring_edge_cases():
    for p, factors in ((IntPoly.of(1), []), (IntPoly.of(-7, 1), [IntPoly.of(-7, 1)]),
                       (IntPoly.of(0, -1, 0, 1),
                        [IntPoly.of(-1, 1), IntPoly.of(0, 1), IntPoly.of(1, 1)])):
        assert factor_with_roots(p, isolate_real_roots(p)) == factors
    with pytest.raises(NotSquarefree):
        isolate_real_roots(IntPoly.of(1, 2, 1))


# -- Aberth seeds against numpy ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=8), st.integers(1, 3))
@example([-2, 0, 0], 1)
@example([1, 0, 0, 0, 0, 0, 0, 0], 1)
def test_aberth_seeds_match_numpy_roots(low, lead):
    p = IntPoly(tuple(low) + (lead,))
    assume(_squarefree(p))
    seeds = _aberth_roots(p)
    expected = [complex(z) for z in np.roots(list(reversed(p.coeffs)))]
    assert len(seeds) == len(expected) == p.degree()
    # match greedily, nearest first; squarefree small-coefficient roots sit
    # far apart compared with double-precision error
    left = list(seeds)
    for z in expected:
        best = min(left, key=lambda w: abs(w - z))
        assert abs(best - z) <= 1e-6 * max(1.0, abs(z))
        left.remove(best)


# -- the integer Sturm chain against the rational one -----------------------

def _fraction_chain(p: IntPoly) -> list[list[Fraction]]:
    """The Sturm sequence of p over Q: p, p', then negated remainders."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            coef = a[-1] / b[-1]
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= coef * b[i]
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [[Fraction(c) for c in p.coeffs], [Fraction(c) for c in p.derivative().coeffs]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in rem(chain[-2], chain[-1])])
    return chain


def _fraction_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        acc = Fraction(0)
        for c in reversed(q):
            acc = acc * x + c
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_dyadics = st.builds(Dyadic, st.integers(-(2 ** 40), 2 ** 40), st.integers(-40, 4))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=10), _dyadics, _dyadics)
def test_sturm_chain_matches_fraction_path(coeffs, a, b):
    p = IntPoly(tuple(coeffs))
    assume(p.degree() >= 1 and _squarefree(p))
    chain, ref = SturmChain(p), _fraction_chain(p)
    a, b = min(a, b), max(a, b)
    for x in (a, b):
        assert _sign_at(p.coeffs, x) == p.eval_dyadic(x).sign()
        assert chain.variations(x) == _fraction_variations(ref, x.as_fraction())
    closed = (_fraction_variations(ref, a.as_fraction()) - _fraction_variations(ref, b.as_fraction())
              + (p.eval_dyadic(a).sign() == 0))
    assert chain.count(DyadicInterval(a, b)) == closed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=9))
def test_isolation_unchanged_by_integer_signs(coeffs):
    p = IntPoly(tuple(coeffs))
    assume(p.degree() >= 1 and _squarefree(p))
    fast = isolate_real_roots(p)
    with pytest.MonkeyPatch.context() as mp:
        ref = _fraction_chain(p)
        mp.setattr(SturmChain, "variations", lambda self, x: _fraction_variations(ref, x.as_fraction()))
        assert isolate_real_roots(p) == fast


def _positive_primitive(q: list[Fraction]) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of q."""
    den = math.lcm(*(c.denominator for c in q))
    ints = [c.numerator * (den // c.denominator) for c in q]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30) | st.just(0), max_size=8), st.sampled_from([1, -1, 2, -3, 5]),
       st.sampled_from([1, 3, -4]), st.none() | st.integers(-3, 3))
@example([5, 0, 0, 0], -1, 1, None)  # one nonzero step by lc = -4: a signed pseudo-remainder flips
@example([2, -3, 0], 1, 1, None)  # (x - 1)^2 (x + 2)
@example([1], 2, 3, 1)  # 3 (2x + 1)(x - 1)^2
def test_sturm_chain_members_are_primitive_fraction_remainders(low, lead, content, square):
    # degree 1-9, leading coefficients of both signs, non-primitive inputs;
    # a squared factor x - square makes p not squarefree, and the rational
    # chain then ends in a zero remainder
    coeffs = low + [lead]
    if square is not None:
        for _ in range(2):  # times (x - square)
            coeffs = [a - square * b for a, b in zip([0] + coeffs, coeffs + [0])]
    p = IntPoly(tuple(content * c for c in coeffs))
    assume(1 <= p.degree() <= 9)
    ref = _fraction_chain(p)
    if [] in ref:
        with pytest.raises(NotSquarefree):
            SturmChain(p)
    else:
        assert SturmChain(p).members == [_positive_primitive(q) for q in ref]


def test_sturm_chain_rejects_repeated_roots():
    for p in (IntPoly.of(0), IntPoly.of(1, 2, 1), IntPoly.of(0, 0, -1, 1)):
        with pytest.raises(NotSquarefree):
            SturmChain(p)
    assert SturmChain(IntPoly.of(5)).count(DyadicInterval(Dyadic(-1), Dyadic(1))) == 0
