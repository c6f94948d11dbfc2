"""Executable verification of the supporting lemmas.

Covers the recurrence-ratio divergence lemma (with its bounded
counterexample), the modulus lower bound for complex continued fractions
with |z_k| >= 2, and the real-part lower bound plus negation identity for
quotients in the right half plane.  Exact Gaussian-rational evaluation is
used whenever inputs are degenerate boxes, so those verdicts carry zero
rounding slack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bigreal.dyadic import Dyadic
from .bigreal.interval import (
    ComplexInterval,
    DyadicInterval,
    from_fraction,
    iv_div,
    iv_mul,
    iv_sqrt,
    iv_sub,
    singleton,
)
from .cfcore import (
    GaussianRational,
    advance,
    complex_cf_eval,
    complex_cf_eval_exact,
    initial_state,
    scalar_enclosure,
)
from .errors import HypothesisViolated, QuotientBelowOne
from .sequences import CFSpec

__all__ = [
    "RatioTrace",
    "RemarkResult",
    "LemmaCheck",
    "SuiteResult",
    "lemma1_trace",
    "remark_counterexample",
    "lemma2_check",
    "lemma3_check",
    "run_lemma2_suite",
    "run_lemma3_suite",
    "TOLERANCE",
]

TOLERANCE = Fraction(1, 2 ** 40)
_SUITE_MAX_LEN = 8  # longest random tuple in the lemma 2 and 3 suites


# ---------------------------------------------------------------------------
# ratio of denominators
# ---------------------------------------------------------------------------

@dataclass
class RatioTrace:
    indices: list[int]
    ratios: list[DyadicInterval]
    liminf_margin: list[DyadicInterval]
    ratios_exact: list[Fraction] | None


def lemma1_trace(a: CFSpec, b: CFSpec, N: int, prec: int) -> RatioTrace:
    """Ratios q_{n,a}/q_{n,b} plus the hypothesis margin sqrt(n)(a_n/b_n - 1).

    Exact when both quotient sequences are exact rationals; interval-valued
    otherwise.  Quotients below one violate the hypothesis and raise.
    """
    exact = a.is_exact() and b.is_exact()
    ratios: list[DyadicInterval] = []
    margins: list[DyadicInterval] = []
    exact_ratios: list[Fraction] | None = [] if exact else None
    st_a, st_b = initial_state(0), initial_state(0)
    for n in range(1, N + 1):
        an = a.quotient(n, prec)
        bn = b.quotient(n, prec)
        for name, q in (("a", an), ("b", bn)):
            enc = scalar_enclosure(q, prec)
            if enc.lo < Dyadic(1):
                if not (enc.is_point() and enc.lo == Dyadic(1)):
                    raise QuotientBelowOne(f"{name}_{n} is not certainly >= 1")
        st_a = advance(st_a, an)
        st_b = advance(st_b, bn)
        sq = iv_sqrt(singleton(n), prec)
        if exact:
            r = Fraction(st_a.q_cur) / Fraction(st_b.q_cur)
            exact_ratios.append(r)
            ratios.append(from_fraction(r, prec))
            rel = from_fraction(Fraction(an) / Fraction(bn) - 1, prec)
        else:
            qa = scalar_enclosure(st_a.q_cur, prec)
            qb = scalar_enclosure(st_b.q_cur, prec)
            ratios.append(iv_div(qa, qb, prec))
            a_iv, b_iv = scalar_enclosure(an, prec), scalar_enclosure(bn, prec)
            rel = iv_div(iv_sub(a_iv, b_iv, prec), b_iv, prec)
        margins.append(iv_mul(sq, rel, prec))
    return RatioTrace(list(range(1, N + 1)), ratios, margins, exact_ratios)


@dataclass
class RemarkResult:
    max_ratio: DyadicInterval
    bound: DyadicInterval
    monotone: bool
    ratios_exact: list[Fraction]


# Enclosure of prod_{n>=1} (1 + 1/n^2)^2: the partial product to 10^6 terms
# in directed 96-bit fixed point, times the tail factor (N/(N-1))^2 >= exp(2/N)
# that bounds the rest, squared and rounded outward to 96 bits.  The tests
# rerun that loop and compare.
_PRODUCT_BOUND = DyadicInterval(
    Dyadic(267662874854023122779623248227, -94),
    Dyadic(66915852545143955130271388157, -92),
)


def remark_counterexample(N: int) -> RemarkResult:
    """Bounded-ratio counterexample: a_n = n^2 + 1 versus b_n = n^2.

    Exact integer recurrences; every ratio is verified below the enclosed
    infinite product, and monotonicity of the ratio series is reported.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    qa_prev, qa = 1, 2  # q_0, q_1 for a_1 = 2
    qb_prev, qb = 1, 1
    ratios = [Fraction(2, 1)]
    monotone = True
    for n in range(2, N + 1):
        qa_prev, qa = qa, (n * n + 1) * qa + qa_prev
        qb_prev, qb = qb, (n * n) * qb + qb_prev
        # monotone iff qa * qb_old > qa_old * qb; track against previous ratio
        if qa * ratios[-1].denominator <= ratios[-1].numerator * qb:
            monotone = False
        ratios.append(Fraction(qa, qb))
    mx = max(ratios)
    if not mx < _PRODUCT_BOUND.lo.as_fraction():
        raise AssertionError("ratio exceeded the infinite-product bound")  # pragma: no cover
    return RemarkResult(from_fraction(mx, 96), _PRODUCT_BOUND, monotone, ratios)


# ---------------------------------------------------------------------------
# complex lemmas
# ---------------------------------------------------------------------------

@dataclass
class LemmaCheck:
    passed: bool
    exact: bool
    slack: Fraction
    details: dict


def _as_gaussians(zs: list[ComplexInterval]) -> list[GaussianRational] | None:
    out = []
    for z in zs:
        if not z.is_point():
            return None
        out.append(GaussianRational(z.re.lo.as_fraction(), z.im.lo.as_fraction()))
    return out


def lemma2_check(zs: list[ComplexInterval], prec: int) -> LemmaCheck:
    """|[z0; z1, ..., zn]| >= 1 whenever every |z_k| >= 2."""
    if not zs:
        raise ValueError("empty input")
    pts = _as_gaussians(zs)
    if pts is not None:
        for p in pts:
            if p.abs_squared() < 4:
                raise HypothesisViolated("|z_k| < 2")
        v = complex_cf_eval_exact(pts)
        ok = v.abs_squared() >= (1 - TOLERANCE) ** 2
        return LemmaCheck(ok, True, Fraction(0), {"abs_squared": v.abs_squared()})
    for z in zs:
        if z.abs_squared(prec).lo < Dyadic(4):
            raise HypothesisViolated("|z_k| >= 2 not certain")
    v = complex_cf_eval(zs, prec)
    lb = v.abs_interval(prec).lo.as_fraction()
    ok = lb >= 1 - TOLERANCE
    return LemmaCheck(ok, False, TOLERANCE, {"modulus_lb": lb})


def lemma3_check(zs: list[ComplexInterval], prec: int) -> LemmaCheck:
    """Re CF >= Re z0 for right-half-plane quotients, plus the negation identity."""
    if not zs:
        raise ValueError("empty input")
    pts = _as_gaussians(zs)
    if pts is not None:
        for p in pts:
            if p.re <= 0:
                raise HypothesisViolated("Re(z_k) <= 0")
        v = complex_cf_eval_exact(pts)
        w = complex_cf_eval_exact([-p for p in pts])
        lower_ok = v.re >= pts[0].re - TOLERANCE
        negation_ok = abs(w.re) == v.re
        return LemmaCheck(
            lower_ok and negation_ok, True, Fraction(0),
            {"re_value": v.re, "re_z0": pts[0].re, "negation_exact": negation_ok},
        )
    for z in zs:
        if z.re.lo.sign() <= 0:
            raise HypothesisViolated("Re(z_k) > 0 not certain")
    v = complex_cf_eval(zs, prec)
    w = complex_cf_eval([-z for z in zs], prec)
    lower_ok = v.re.lo.as_fraction() >= zs[0].re.lo.as_fraction() - TOLERANCE
    # | |Re w| - Re v | within tolerance, on intervals
    diff_lo = abs(w.re.midpoint().as_fraction()) - v.re.midpoint().as_fraction()
    negation_ok = abs(diff_lo) <= TOLERANCE + v.re.width().as_fraction() + w.re.width().as_fraction()
    return LemmaCheck(lower_ok and negation_ok, False, TOLERANCE,
                      {"re_lower": v.re.lo.as_fraction()})


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    trials: int
    passed: int
    seed: int
    worst: Fraction
    failures: list[int]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def _random_modulus_point(rng: random.Random, lo: float, hi: float) -> GaussianRational:
    while True:
        m = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        re = Fraction(m * math.cos(phi))
        im = Fraction(m * math.sin(phi))
        if lo * lo <= re * re + im * im <= hi * hi:
            return GaussianRational(re, im)


def run_lemma2_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random tuples with |z_k| in [2, 10]: modulus of the CF stays >= 1 - 2^-40."""
    rng = random.Random(seed)
    passed = 0
    failures: list[int] = []
    worst = None
    floor = (1 - TOLERANCE) ** 2
    for t in range(trials):
        k = rng.randint(1, _SUITE_MAX_LEN)
        pts = [_random_modulus_point(rng, 2.0, 10.0) for _ in range(k)]
        v = complex_cf_eval_exact(pts)
        a2 = v.abs_squared()
        worst = a2 if worst is None or a2 < worst else worst
        if a2 >= floor:
            passed += 1
        else:
            failures.append(t)
    return SuiteResult(trials, passed, seed, worst, failures)


def run_lemma3_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Random right-half-plane tuples: Re CF >= Re z0 - 2^-40 and negation identity."""
    rng = random.Random(seed)
    passed = 0
    failures: list[int] = []
    worst = None
    for t in range(trials):
        k = rng.randint(1, _SUITE_MAX_LEN)
        pts = []
        for _ in range(k):
            re = Fraction(0)
            while re <= 0:
                re = Fraction(rng.uniform(0.0, 5.0))
            im = Fraction(rng.uniform(-5.0, 5.0))
            pts.append(GaussianRational(re, im))
        v = complex_cf_eval_exact(pts)
        w = complex_cf_eval_exact([-p for p in pts])
        margin = v.re - pts[0].re
        worst = margin if worst is None or margin < worst else worst
        if margin >= -TOLERANCE and abs(w.re) == v.re:
            passed += 1
        else:
            failures.append(t)
    return SuiteResult(trials, passed, seed, worst, failures)
