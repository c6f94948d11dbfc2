"""Executable verification of the supporting lemmas.

Covers the recurrence-ratio divergence lemma (with its bounded
counterexample), the modulus lower bound for complex continued fractions
with |z_k| >= 2, and the real-part lower bound plus negation identity for
quotients in the right half plane.  The complex lemmas are checked on
random tuples evaluated exactly in Gaussian integers, so their verdicts
carry no rounding slack.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .bigreal.dyadic import Dyadic
from .bigreal.interval import (
    DyadicInterval,
    from_fraction,
    iv_div,
    iv_mul,
    iv_sqrt,
    iv_sub,
    singleton,
)
from .cfcore import (
    _RATIONAL,
    advance,
    gaussian_cf,
    initial_state,
    scalar,
    scalar_at_least_one,
    scalar_enclosure,
)
from .errors import QuotientBelowOne
from .sequences import CFSpec

__all__ = [
    "RatioTrace",
    "RemarkResult",
    "SuiteResult",
    "lemma1_trace",
    "remark_counterexample",
    "run_lemma2_suite",
    "run_lemma3_suite",
]

_SUITE_MAX_LEN = 8  # longest random tuple in the lemma 2 and 3 suites


# ---------------------------------------------------------------------------
# ratio of denominators
# ---------------------------------------------------------------------------

class RatioTrace:
    def __init__(self, indices: list[int], ratios: list[DyadicInterval],
                 liminf_margin: list[DyadicInterval], ratios_exact: list[Fraction] | None):
        self.indices, self.ratios = indices, ratios
        self.liminf_margin, self.ratios_exact = liminf_margin, ratios_exact


def lemma1_trace(a: CFSpec, b: CFSpec, N: int, prec: int) -> RatioTrace:
    """Ratios q_{n,a}/q_{n,b} plus the hypothesis margin sqrt(n)(a_n/b_n - 1).

    Exact when every quotient of both sequences is rational; enclosed at
    ``prec`` bits when either sequence is field-valued.  Quotients below one violate
    the hypothesis and raise.
    """
    quotients = [(scalar(a.quotient(n)), scalar(b.quotient(n))) for n in range(1, N + 1)]
    exact = all(sa is sb is _RATIONAL for (_, sa), (_, sb) in quotients)
    ratios: list[DyadicInterval] = []
    margins: list[DyadicInterval] = []
    exact_ratios: list[Fraction] | None = [] if exact else None
    st_a, st_b = initial_state(0), initial_state(0)
    for n, ((an, _), (bn, _)) in enumerate(quotients, start=1):
        for name, q in (("a", an), ("b", bn)):
            if not scalar_at_least_one(q):
                raise QuotientBelowOne(f"{name}_{n} is not certainly >= 1")
        st_a = advance(st_a, an)
        st_b = advance(st_b, bn)
        sq = iv_sqrt(singleton(n), prec)
        if exact:
            r = st_a.q_cur / st_b.q_cur
            exact_ratios.append(r)
            ratios.append(from_fraction(r, prec))
            rel = from_fraction(an / bn - 1, prec)
        else:
            qa = scalar_enclosure(st_a.q_cur, prec)
            qb = scalar_enclosure(st_b.q_cur, prec)
            ratios.append(iv_div(qa, qb, prec))
            a_iv, b_iv = scalar_enclosure(an, prec), scalar_enclosure(bn, prec)
            rel = iv_div(iv_sub(a_iv, b_iv, prec), b_iv, prec)
        margins.append(iv_mul(sq, rel, prec))
    return RatioTrace(list(range(1, N + 1)), ratios, margins, exact_ratios)


class RemarkResult:
    def __init__(self, max_ratio: DyadicInterval, bound: DyadicInterval, monotone: bool, N: int):
        self.max_ratio, self.bound, self.monotone, self.N = max_ratio, bound, monotone, N


# Enclosure of prod_{n>=1} (1 + 1/n^2)^2: the partial product to 10^6 terms
# in directed 96-bit fixed point, times the tail factor (N/(N-1))^2 >= exp(2/N)
# that bounds the rest, squared and rounded outward to 96 bits.  The tests
# rerun that loop and compare.
_PRODUCT_BOUND = DyadicInterval(
    Dyadic(267662874854023122779623248227, -94),
    Dyadic(66915852545143955130271388157, -92),
)


def _remark_steps(N: int):
    """(q_{n,a}, q_{n,b}) for n = 1..N, with a_n = n^2 + 1 and b_n = n^2."""
    qa_prev, qa, qb_prev, qb = 0, 1, 0, 1  # q_{-1}, q_0 of both sequences
    for n in range(1, N + 1):
        a, b = n * n + 1, n * n
        qa_prev, qa = qa, a * qa + qa_prev
        qb_prev, qb = qb, b * qb + qb_prev
        yield qa, qb


def remark_counterexample(N: int) -> RemarkResult:
    """Bounded-ratio counterexample: a_n = n^2 + 1 versus b_n = n^2.

    The ratio q_{n,a}/q_{n,b} increases at n exactly when
    D_n = q_{n,a} q_{n-1,b} - q_{n-1,a} q_{n,b} > 0.  Since a_n - b_n = 1,
    D_n = P_{n-1} - D_{n-1} with P_n = q_{n,a} q_{n,b}; from D_1 = 1 < P_1 = 2
    and P_n >= P_{n-1}, induction gives 0 < D_n < P_n for every n >= 1.  The
    exact integer recurrences check that premise (q_{n,a} > q_{n-1,a} and
    q_{n,b} >= q_{n-1,b}) at every n and, as a guard, 0 < D_N < P_N from the
    last two pairs.  So the ratio's maximum is the last ratio, which is
    verified below the enclosed infinite product.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    qa = qb = 1  # q_0 of both sequences
    for step in _remark_steps(N):
        (qa_prev, qb_prev), (qa, qb) = (qa, qb), step
        if qa <= qa_prev or qb < qb_prev:
            raise AssertionError("remark denominators are not increasing")
    if not 0 < qa * qb_prev - qa_prev * qb < qa * qb:
        raise AssertionError("remark ratio is not increasing")
    mx = Fraction(qa, qb)
    if not mx < _PRODUCT_BOUND.lo.as_fraction():
        raise AssertionError("ratio exceeded the infinite-product bound")  # pragma: no cover
    return RemarkResult(from_fraction(mx, 96), _PRODUCT_BOUND, True, N)


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

class SuiteResult:
    def __init__(self, trials: int, passed: int, seed: int, worst: Fraction, failures: list[int]):
        self.trials, self.passed, self.seed, self.worst = trials, passed, seed, worst
        self.failures = failures

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def _gaussian_integers(pairs: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
    """Pairs (x_k, y_k) and a power of two s with (x_k + i*y_k)/s == pairs[2k] + i*pairs[2k+1]."""
    scale = max(d for _, d in pairs)  # every denominator is a power of two
    ms = [n * (scale // d) for n, d in pairs]
    return list(zip(ms[::2], ms[1::2])), scale


def _random_modulus_point(rng: random.Random, lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A random point with lo <= |z| <= hi exactly, as the integer ratios of its two floats."""
    while True:
        m = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        re, im = m * math.cos(phi), m * math.sin(phi)
        (x, xd), (y, yd) = re.as_integer_ratio(), im.as_integer_ratio()
        r2, s2 = (x * yd) ** 2 + (y * xd) ** 2, (xd * yd) ** 2  # |z|^2 = r2/s2
        if lo * lo * s2 <= r2 <= hi * hi * s2:
            return (x, xd), (y, yd)


def _run_suite(trials: int, seed: int, trial) -> SuiteResult:
    """Run ``trial(rng)`` -> (num, den, passed) ``trials`` times; the worst
    value is the least num/den (den > 0), kept as a pair and compared by
    cross-multiplication, then reduced once."""
    rng = random.Random(seed)
    passed = 0
    failures: list[int] = []
    worst = None
    for t in range(trials):
        num, den, ok = trial(rng)
        if worst is None or num * worst[1] < worst[0] * den:
            worst = num, den
        if ok:
            passed += 1
        else:
            failures.append(t)
    return SuiteResult(trials, passed, seed, None if worst is None else Fraction(*worst), failures)


def _lemma2_trial(rng: random.Random) -> tuple[int, int, bool]:
    """|v|^2 = |A|^2/|B|^2 for v = A/B from ``gaussian_cf``, and |v| >= 1."""
    k = rng.randint(1, _SUITE_MAX_LEN)
    ratios = [c for _ in range(k) for c in _random_modulus_point(rng, 2, 10)]
    ar, ai, br, bi = gaussian_cf(*_gaussian_integers(ratios))
    num, den = ar * ar + ai * ai, br * br + bi * bi
    return num, den, num >= den


def _lemma3_trial(rng: random.Random) -> tuple[int, int, bool]:
    """Margin Re v - Re z0 with Re v = Re(A conj B)/|B|^2 for v = A/B; passes when
    it is >= 0 and |Re w| == Re v for w = [-z0; -z1, ...]."""
    k = rng.randint(1, _SUITE_MAX_LEN)
    floats = []
    for _ in range(k):
        re = 0.0
        while re <= 0:
            re = rng.uniform(0.0, 5.0)
        floats += [re, rng.uniform(-5.0, 5.0)]
    pts, scale = _gaussian_integers([f.as_integer_ratio() for f in floats])
    ar, ai, br, bi = gaussian_cf(pts, scale)
    cr, ci, dr, di = gaussian_cf([(-x, -y) for x, y in pts], scale)
    v_re, v_den = ar * br + ai * bi, br * br + bi * bi
    w_re, w_den = cr * dr + ci * di, dr * dr + di * di
    num, den = scale * v_re - pts[0][0] * v_den, scale * v_den
    return num, den, num >= 0 and abs(w_re) * v_den == v_re * w_den


def run_lemma2_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random tuples with |z_k| in [2, 10]: the modulus of the CF is at least 1."""
    return _run_suite(trials, seed, _lemma2_trial)


def run_lemma3_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random right-half-plane tuples: Re CF >= Re z0 and the negation identity."""
    return _run_suite(trials, seed, _lemma3_trial)
