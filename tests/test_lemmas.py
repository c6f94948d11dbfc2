import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cfindep.bigreal.interval import DyadicInterval, from_fraction, iv_mul
from cfindep.bigreal.dyadic import rational_to_dyadic
from cfindep import lemmas
from cfindep.cfcore import GaussianRational, complex_cf_eval_exact, gaussian_cf
from cfindep.errors import QuotientBelowOne
from cfindep.lemmas import (
    _remark_steps,
    lemma1_trace,
    remark_counterexample,
    run_lemma2_suite,
    run_lemma3_suite,
)
from cfindep.sequences import spec, sqrt2_field
from enclosing import contains


def test_lemma1_pell_vs_fibonacci():
    tr = lemma1_trace(spec("constant", value=Fraction(2)),
                      spec("constant", value=Fraction(1)), 20, 128)
    rs = tr.ratios_exact
    assert rs is not None
    # growth factor (1+sqrt2)/phi ~ 1.492 per step; crosses 1000 by n = 18
    assert rs[17] > 1000
    assert all(b > a for a, b in zip(rs[1:], rs[2:]))  # increasing from n=2
    # hypothesis margin sqrt(n)(2/1 - 1) = sqrt(n)
    assert contains(tr.liminf_margin[3], Fraction(2))


def test_lemma1_identical_sequences():
    s = spec("constant", value=Fraction(3))
    tr = lemma1_trace(s, s, 10, 128)
    assert all(r == 1 for r in tr.ratios_exact)


def test_lemma1_slow_margin():
    # a_n = (1 + 1/n) sqrt2 over b_n = sqrt2: field-valued, so enclosed
    f = sqrt2_field()
    a = spec("custom", field=f, fn=lambda n: f.generator() * Fraction(n + 1, n))
    b = spec("custom", field=f, fn=lambda n: f.generator())
    tr = lemma1_trace(a, b, 12, prec=128)
    # margin sqrt(n) * (a_n/b_n - 1) = 1/sqrt(n), whose square is 1/n
    for n, m in enumerate(tr.liminf_margin, start=1):
        assert contains(iv_mul(m, m, 128), Fraction(1, n))
    assert tr.ratios_exact is None  # enclosure path
    # ratios grow, slowly
    assert tr.ratios[-1].lo.as_fraction() > tr.ratios[0].hi.as_fraction() * Fraction(3, 2)


def test_lemma1_rejects_below_one():
    bad = spec("constant", value=Fraction(1, 2))
    with pytest.raises(QuotientBelowOne):
        lemma1_trace(bad, spec("constant", value=Fraction(1)), 5, 128)


def _product_bound_by_fixed_point() -> DyadicInterval:
    """prod_{n>=1} (1 + 1/n^2)^2 enclosed by the 10^6-term fixed-point loop.

    Partial product in directed 96-bit fixed-point arithmetic, then an
    exp-tail factor: the remaining product is at most exp(2/N) <= (N/(N-1))^2.
    """
    bits = 96
    one = 1 << bits
    lo, hi = one, one
    terms = 10 ** 6
    for n in range(1, terms + 1):
        n2 = n * n
        lo = lo * (n2 + 1) // n2
        hi = (hi * (n2 + 1) + n2 - 1) // n2
    big_n = terms
    hi = (hi * big_n + big_n - 2) // (big_n - 1)  # tail factor N/(N-1), rounded up
    lo_sq = lo * lo
    hi_sq = hi * hi
    den = one * one
    return DyadicInterval(
        rational_to_dyadic(lo_sq, den, 96, up=False),
        rational_to_dyadic(hi_sq, den, 96, up=True),
    )


def test_committed_product_bound_matches_the_loop():
    assert remark_counterexample(2).bound == _product_bound_by_fixed_point()


def test_remark_counterexample_small():
    rr = remark_counterexample(10)
    assert rr.monotone
    assert rr.max_ratio.hi.as_fraction() < Fraction(1352, 100)
    assert rr.bound.hi.as_fraction() < Fraction(1352, 100)
    # the enclosed infinite product is (sinh pi / pi)^2 ~ 13.5137
    assert Fraction(1351, 100) < rr.bound.lo.as_fraction()
    # hand recurrence: q_{2,a}/q_{2,b} = 11/5
    qa, qb = list(_remark_steps(10))[1]
    assert Fraction(qa, qb) == Fraction(11, 5) < Fraction(1352, 100)


def _remark_by_fractions(N: int):
    """Reference: every ratio as a reduced Fraction, monotonicity checked
    against the previous ratio, maximum by comparison."""
    qa_prev, qa = 1, 2  # q_0, q_1 for a_1 = 2
    qb_prev, qb = 1, 1
    ratios = [Fraction(2, 1)]
    monotone = True
    for n in range(2, N + 1):
        qa_prev, qa = qa, (n * n + 1) * qa + qa_prev
        qb_prev, qb = qb, (n * n) * qb + qb_prev
        if qa * ratios[-1].denominator <= ratios[-1].numerator * qb:
            monotone = False
        ratios.append(Fraction(qa, qb))
    return max(ratios), monotone, ratios


def test_remark_matches_fraction_loop():
    for N in range(1, 301):
        rr = remark_counterexample(N)
        mx, monotone, ratios = _remark_by_fractions(N)
        assert rr.max_ratio == from_fraction(mx, 96), N
        assert rr.monotone == monotone, N
        assert [Fraction(qa, qb) for qa, qb in _remark_steps(N)] == ratios, N


def _remark_denominators(N: int):
    """(q_{n,a}, q_{n,b}) for n = 0..N with a_n = n^2 + 1 and b_n = n^2."""
    qa_prev, qa, qb_prev, qb = 0, 1, 0, 1  # q_{-1}, q_0
    yield qa, qb
    for n in range(1, N + 1):
        qa_prev, qa = qa, (n * n + 1) * qa + qa_prev
        qb_prev, qb = qb, n * n * qb + qb_prev
        yield qa, qb


def _ratio_greater(p: int, q: int, r: int, s: int) -> bool:
    """p/q > r/s for positive integers, exactly.  The 64-bit floors differ
    unless the ratios are within 2^-64, and then the cross products decide."""
    fp, fr = (p << 64) // q, (r << 64) // s
    return fp > fr if fp != fr else p * s > r * q


def _remark_by_integers(N: int) -> tuple[Fraction, bool]:
    """Reference without fractions: monotonicity checked against the previous
    ratio at every n, maximum by comparison."""
    pairs = _remark_denominators(N)
    next(pairs)  # q_0
    mx = prev = next(pairs)
    monotone = True
    for cur in pairs:
        monotone = monotone and _ratio_greater(*cur, *prev)
        if _ratio_greater(*cur, *mx):
            mx = cur
        prev = cur
    return Fraction(*mx), monotone


@pytest.mark.parametrize("N", [2000, 5000])
def test_remark_matches_integer_reference(N):
    rr = remark_counterexample(N)
    mx, monotone = _remark_by_integers(N)
    assert rr.max_ratio == from_fraction(mx, 96)
    assert rr.monotone == monotone


def test_remark_checks_the_sign_of_the_cross_product():
    # the induction in remark_counterexample's docstring, checked on the cross
    # product D_n = q_{n,a} q_{n-1,b} - q_{n-1,a} q_{n,b} for every n <= 2000
    pairs = _remark_denominators(2000)
    qa_prev, qb_prev = next(pairs)
    d_prev, p_prev = 0, 1  # D_0, P_0
    for qa, qb in pairs:
        d, p = qa * qb_prev - qa_prev * qb, qa * qb
        assert d == p_prev - d_prev
        assert 0 < d < p
        qa_prev, qb_prev, d_prev, p_prev = qa, qb, d, p


@pytest.mark.parametrize("fault", ["q_a stalls", "q_b shrinks", "final pair"])
def test_remark_refuses_a_faulty_recurrence(monkeypatch, fault):
    honest = lemmas._remark_steps

    def faulty(N):
        pairs = list(honest(N))
        if fault == "q_a stalls":
            pairs[5] = pairs[4][0], pairs[5][1]
        elif fault == "q_b shrinks":
            pairs[5] = pairs[5][0], pairs[4][1] - 1
        else:  # both denominators grow, but the last ratio equals the one before
            pairs[-1] = 2 * pairs[-2][0], 2 * pairs[-2][1]
        return iter(pairs)

    monkeypatch.setattr(lemmas, "_remark_steps", faulty)
    with pytest.raises(AssertionError):
        remark_counterexample(50)


def _abs_squared(z: GaussianRational) -> Fraction:
    return z.re * z.re + z.im * z.im


def _gaussians(*parts) -> list[GaussianRational]:
    return [GaussianRational.of(*p) for p in parts]


def test_lemma2_examples():
    # |[z0; z1, ...]| >= 1 when every |z_k| >= 2
    v = complex_cf_eval_exact(_gaussians((2,), (2,), (2,)))
    assert _abs_squared(v) == Fraction(144, 25)  # |12/5|^2
    assert _abs_squared(complex_cf_eval_exact(_gaussians((-2,), (2,)))) == Fraction(9, 4)  # |-3/2|^2
    ar, ai, br, bi = gaussian_cf([(0, 2), (0, -2)], 1)
    assert Fraction(ar * ar + ai * ai, br * br + bi * bi) == Fraction(25, 4)


def _suite_inputs(monkeypatch, run) -> list[tuple[list[tuple[int, int]], int]]:
    """The (quotients, scale) pairs a suite run hands to ``gaussian_cf``."""
    seen = []

    def record(zs, scale):
        seen.append((zs, scale))
        return gaussian_cf(zs, scale)

    monkeypatch.setattr(lemmas, "gaussian_cf", record)
    assert run(trials=200, seed=3).all_passed
    return seen


def test_lemma2_hypothesis_enforced(monkeypatch):
    # every quotient the lemma 2 suite draws has |z_k| >= 2 exactly
    seen = _suite_inputs(monkeypatch, run_lemma2_suite)
    assert len(seen) == 200
    assert all(x * x + y * y >= 4 * s * s for zs, s in seen for x, y in zs)


def _in_annulus_by_common_scale(re: float, im: float, lo: int, hi: int) -> bool:
    """Reference annulus test: both coordinates on one power-of-two denominator."""
    [(x, y)], s = lemmas._gaussian_integers([re.as_integer_ratio(), im.as_integer_ratio()])
    return lo * lo * s * s <= x * x + y * y <= hi * hi * s * s


def _reference_modulus_point(rng: random.Random, lo: int, hi: int) -> tuple[float, float]:
    while True:
        m = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        re, im = m * math.cos(phi), m * math.sin(phi)
        if _in_annulus_by_common_scale(re, im, lo, hi):
            return re, im


def test_annulus_boundary_matches_the_reference(monkeypatch):
    # the sampler draws m = 1.0 and phi = re + i*im, and reads cos/sin as the
    # parts of phi, so each candidate point is (re, im) exactly, signed zeros too
    monkeypatch.setattr(lemmas, "math", SimpleNamespace(
        pi=math.pi, cos=lambda z: z.real, sin=lambda z: z.imag))
    fallback = (5.0, 0.0)

    def near(c):
        return math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)

    outcomes = set()
    for x, y in [(2.0, 0.0), (6.0, 8.0), (0.0, 10.0)]:
        for sx, sy in itertools.product((1.0, -1.0), repeat=2):  # -1.0 * 0.0 is -0.0
            for re, im in itertools.product(near(sx * x), near(sy * y)):
                script = iter([1.0, complex(re, im), 1.0, complex(*fallback)])
                rng = SimpleNamespace(uniform=lambda a, b: next(script))
                got = lemmas._random_modulus_point(rng, 2, 10)
                accepted = _in_annulus_by_common_scale(re, im, 2, 10)
                want = (re, im) if accepted else fallback
                assert got == tuple(c.as_integer_ratio() for c in want), (re, im)
                outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_modulus_sampler_matches_the_reference_stream(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    draws = [lemmas._random_modulus_point(ours, 2, 10) for _ in range(20_000)]
    assert draws == [tuple(c.as_integer_ratio() for c in _reference_modulus_point(ref, 2, 10))
                     for _ in range(20_000)]
    assert ours.getstate() == ref.getstate()


def test_lemma2_checks_the_bound_exactly(monkeypatch):
    # [2; -2, 2, -2, ...] with k quotients has |v| = (k+1)/k, so lemma 2's
    # bound |v| >= 1 is an infimum; the suite checks that bound with no slack
    def trial(k):
        points = iter(((2 * (-1) ** i, 1), (0, 1)) for i in range(k))
        monkeypatch.setattr(lemmas, "_random_modulus_point", lambda rng, lo, hi: next(points))
        return lemmas._lemma2_trial(SimpleNamespace(randint=lambda a, b: k))

    for k in range(1, 41):
        num, den, ok = trial(k)
        assert ok and Fraction(num, den) == Fraction(k + 1, k) ** 2, k
    # a value on the bound, |v| = |3 + 4i|/|4 + 3i| = 1, passes
    monkeypatch.setattr(lemmas, "gaussian_cf", lambda zs, scale: (3, 4, 4, 3))
    assert trial(1) == (25, 25, True)


def test_lemma3_examples():
    # Re [z0; z1, ...] >= Re z0 when every Re z_k > 0
    assert complex_cf_eval_exact(_gaussians((1,), (1,))).re == 2
    assert complex_cf_eval_exact(_gaussians((1, 1), (1, -1))).re == Fraction(3, 2)
    assert complex_cf_eval_exact(_gaussians((Fraction(1, 2),), (3,))).re == Fraction(5, 6)


def test_lemma3_hypothesis_enforced(monkeypatch):
    # every tuple the lemma 3 suite draws lies in the right half plane, and
    # its negation is evaluated alongside it
    seen = _suite_inputs(monkeypatch, run_lemma3_suite)
    assert len(seen) == 400
    for (zs, s), (neg, s_neg) in zip(seen[::2], seen[1::2]):
        assert all(x > 0 for x, _ in zs)
        assert s_neg == s and neg == [(-x, -y) for x, y in zs]


def test_random_suites_small():
    s2 = run_lemma2_suite(trials=200, seed=42)
    assert s2.all_passed and s2.worst >= 1
    s3 = run_lemma3_suite(trials=200, seed=42)
    assert s3.all_passed and s3.worst == 0  # one-quotient tuples meet lemma 3's bound
    # determinism: same seed gives identical outcome
    again = run_lemma2_suite(trials=200, seed=42)
    assert again.worst == s2.worst


def test_lemma3_negation_identity_randomized():
    rng = random.Random(8)
    for _ in range(100):
        k = rng.randint(1, 6)
        pts = [GaussianRational(Fraction(rng.randint(1, 40), 8), Fraction(rng.randint(-40, 40), 8))
               for _ in range(k)]
        v = complex_cf_eval_exact(pts)
        w = complex_cf_eval_exact([GaussianRational(-p.re, -p.im) for p in pts])
        assert abs(w.re) == v.re
        assert v.re >= pts[0].re


def test_lemma1_threshold_crossing_bound():
    # growth per step is about (1+sqrt2)/phi ~ 1.492, so the ratio exceeds any
    # threshold T by index ceil(log T / log 1.49) + 4
    tr = lemma1_trace(spec("constant", value=Fraction(2)),
                      spec("constant", value=Fraction(1)), 30, 128)
    rs = tr.ratios_exact
    for T in (10, 100, 1000, 10_000):
        bound = math.ceil(math.log(T) / math.log(1.49)) + 4
        crossing = next(i + 1 for i, r in enumerate(rs) if r > T)
        assert crossing <= bound, (T, crossing, bound)
