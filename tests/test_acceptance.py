"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Budgets are asserted, not just reported.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, from_fraction, iv_add, iv_sqrt, singleton
from cfindep.bigreal.poly import IntPoly, refine_root
from cfindep.catalog import build_config
from cfindep.cfcore import (
    advance,
    determinant_value,
    enclose_value,
    initial_state,
    run_recurrence,
    scalar_sign,
)
from cfindep.criteria import check_all, compute_d
from cfindep.lemmas import (
    _remark_steps,
    lemma1_trace,
    remark_counterexample,
    run_lemma2_suite,
    run_lemma3_suite,
)
from cfindep.numfield import characteristic_polynomial, field_new, house, is_algebraic_integer
from cfindep.relation import find_relation, find_relation_over_field
from cfindep.sequences import spec, sqrt2_field
from test_cfcore import eval_finite


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{num:02d} {label}: FAIL")
        raise
    dt = time.monotonic() - t0
    print(f"\nACCEPTANCE C{num:02d} {label}: PASS ({dt:.2f}s, budget {budget_s:.0f}s)")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.1f}s)"


def _rational_corpus(rng: random.Random, count: int = 200):
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 30)
        qs = []
        for _ in range(n):
            den = rng.randint(1, 1000)
            num = rng.randint(den, den * 10 ** 6)
            qs.append(Fraction(num, den))  # in [1, 10^6]
        corpus.append(qs)
    return corpus


def _field_corpus(rng: random.Random, count: int = 50):
    k = sqrt2_field()
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 30)
        qs = []
        for _ in range(n):
            u = rng.randint(1, 9)
            v = rng.randint(0, max(1, u // 2))  # u + v sqrt2 >= 1
            qs.append(k.element([u, v]))
        corpus.append(qs)
    return corpus


@pytest.fixture(scope="module")
def corpora():
    rng = random.Random(20240809)
    return _rational_corpus(rng), _field_corpus(rng)


def test_c01_determinant_identity(corpora):
    rational, field = corpora
    with criterion(1, "determinant identity", 10):
        k = sqrt2_field()
        for qs in rational:
            st = initial_state()
            for i, a in enumerate(qs, start=1):
                st = advance(st, a)
                assert determinant_value(st) == (-1) ** i
        for qs in field:
            st = initial_state()
            for i, a in enumerate(qs, start=1):
                st = advance(st, a)
                assert (determinant_value(st) - k.from_rational((-1) ** i)).is_zero()


def _alternating_sum(states):
    """sum_{k=1}^n (-1)^(k+1) / (q_k q_{k-1}) over the recurrence's states."""
    total = 1 / states[0].q_cur  # q_0 = 1
    for k in range(1, len(states)):
        total = total + (-1) ** k / (states[k].q_cur * states[k - 1].q_cur)
    return total


def _product_below_denominator(qs, state) -> bool:
    """q_n > a_1 ... a_n, decided by the exact sign of the difference."""
    prod = qs[0]
    for a in qs[1:]:
        prod = prod * a
    return scalar_sign(state.q_cur - prod) > 0


def test_c02_alternating_sum_and_backward(corpora):
    rational, field = corpora
    with criterion(2, "alternating sum + backward/forward agreement", 10):
        for qs in rational:
            states = list(run_recurrence(qs))
            conv = Fraction(states[-1].p_cur) / Fraction(states[-1].q_cur)
            assert _alternating_sum(states) == conv
            assert eval_finite([Fraction(0)] + qs) == conv
        for qs in field:
            states = list(run_recurrence(qs))
            conv = states[-1].p_cur / states[-1].q_cur
            assert (_alternating_sum(states) - conv).is_zero()
            assert (eval_finite([Fraction(0)] + qs) - conv).is_zero()


def test_c03_product_lower_bound(corpora):
    # strict from n = 2 on: q_1 equals a_1 exactly, so length-1 CFs sit on the
    # boundary of the chain q_n > a_n q_{n-1} > ... > prod a_k
    rational, field = corpora
    with criterion(3, "product lower bound", 5):
        for qs in rational:
            if len(qs) < 2:
                qs = qs + [Fraction(3)]
            assert _product_below_denominator(qs, list(run_recurrence(qs))[-1])
        for qs in field:
            if len(qs) < 2:
                qs = qs + [sqrt2_field().from_rational(3)]
            assert _product_below_denominator(qs, list(run_recurrence(qs))[-1])


def test_c04_enclosure_soundness():
    with criterion(4, "enclosure soundness for [0;2,2,2,...]", 5):
        # independent sqrt2 oracle
        root = refine_root(IntPoly.of(-2, 0, 1), DyadicInterval(Dyadic(1), Dyadic(2)),
                           Dyadic(1, -200))
        lo = root.lo.as_fraction() - 1
        hi = root.hi.as_fraction() - 1
        s = spec("constant", value=Fraction(2))
        for n in range(1, 21):
            enc = enclose_value(s, n, 128)
            assert enc.lo.as_fraction() <= lo and hi <= enc.hi.as_fraction()
            states = list(run_recurrence([Fraction(2)] * (n + 1)))
            bound = Fraction(1) / (Fraction(states[n - 1].q_cur) * Fraction(states[n].q_cur))
            assert enc.width().as_fraction() <= bound
        for n in (5, 10, 20):
            a = enclose_value(s, n, 96)
            b = enclose_value(s, n, 192)
            assert a.contains_interval(b)
            assert b.width().as_fraction() <= a.width().as_fraction()


def test_c05_lemma2_suite():
    with criterion(5, "lemma 2 randomized suite (1000 trials)", 30):
        res = run_lemma2_suite(trials=1000, seed=20240805)
        assert res.all_passed, res.failures
        assert res.worst >= 1  # modulus^2 lower bound


def test_c06_lemma3_suite():
    with criterion(6, "lemma 3 randomized suite (1000 trials)", 30):
        res = run_lemma3_suite(trials=1000, seed=20240806)
        assert res.all_passed, res.failures
        assert res.worst >= 0


def test_c07_lemma1_and_remark():
    with criterion(7, "lemma 1 positive instance + bounded counterexample", 60):
        tr = lemma1_trace(spec("constant", value=Fraction(2)),
                          spec("constant", value=Fraction(1)), 18, 128)
        rs = tr.ratios_exact
        assert all(b > a for a, b in zip(rs[1:], rs[2:]))  # increasing from n=2
        assert rs[17] > 1000  # by n = 18
        rr = remark_counterexample(2000)
        assert rr.monotone
        cap = Fraction(1352, 100)
        assert rr.bound.hi.as_fraction() < cap  # 13.52 upper-bounds the product
        assert all(Fraction(qa, qb) < cap for qa, qb in _remark_steps(2000))
        assert rr.max_ratio.hi.as_fraction() < cap


def test_c08_theorem1_checker_ex1():
    with criterion(8, "Theorem-1 checker on ex1 at 512 bits", 120):
        cfg = build_config("ex1")
        assert cfg.degree == 2 and cfg.M == 2 and cfg.d == 3
        assert cfg.gamma == Fraction(1, 2)
        rep = check_all(cfg, 6, 512)
        assert rep.overall == "pass"
        assert rep.mode_used == "real-part-sign"  # condition-5 auto fallback
        for c in rep.conditions:
            assert c.verdict == "pass", (c.name, c.failing_index)
            assert len(c.margin_series) == 6
        # compute_d cross-checks
        assert compute_d(2, 2) == 3
        for K in range(2, 8):
            assert compute_d(K, K) == K * K - 1
        for K in range(1, 8):
            assert compute_d(1, K) == max(2, K - 1)


def test_c09_relation_engine():
    with criterion(9, "relation engine: planted + relation-free + trivial", 120):
        rng = random.Random(20240809)
        for trial in range(50):
            m = rng.randint(3, 6)
            exact = [Fraction(rng.getrandbits(300), 2 ** 300) for _ in range(m - 1)]
            coeffs = [rng.randint(-100, 100) or 7 for _ in range(m - 1)]
            target = sum(c * x for c, x in zip(coeffs, exact))
            vals = [from_fraction(x, 340) for x in exact] + [from_fraction(target, 340)]
            res = find_relation(vals, 100, 256)
            assert res.found, trial
            assert res.residual.contains_zero()
            got = res.coefficients
            assert sum(c * x for c, x in zip(got[:-1], exact)) + got[-1] * target == 0
        for trial in range(50):
            m = rng.randint(3, 6)
            vals = [from_fraction(Fraction(rng.getrandbits(300), 2 ** 300), 300)
                    for _ in range(m)]
            res = find_relation(vals, 100, 256)
            assert res.status == "none_below_height", trial
        r2 = iv_sqrt(singleton(2), 320)
        res = find_relation([singleton(1), r2, iv_add(singleton(1), r2, 320)], 100, 256)
        assert res.found and res.coefficients == [1, 1, -1]


def test_c10_independence_probe():
    # the probed numbers are the exact order-6 convergents p_6/q_6 (field
    # elements), enclosed to 2^-2096; any true relation among them needs
    # coefficients of the order of q_6, far above H = 1000
    with criterion(10, "independence probe ex1 + hanluc at P=2048", 600):
        for name in ("ex1", "hanluc"):
            cfg = build_config(name)
            values = []
            for s in cfg.sequences:
                st = list(run_recurrence([s.quotient(k) for k in range(1, 7)]))[-1]
                trunc = st.p_cur / st.q_cur
                values.append(trunc.enclosure(2048 + 48))
            res = find_relation_over_field(values, cfg.field, 1000, 2048)
            assert res.status == "none_below_height", name
            assert "not a proof" in res.statement


def test_c11_house_and_integrality():
    with criterion(11, "house and integrality", 5):
        k = sqrt2_field()
        r2 = k.generator()
        sqrt2_oracle = refine_root(IntPoly.of(-2, 0, 1),
                                   DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -80))
        h = house(r2, 64)
        assert h.lo.as_fraction() <= sqrt2_oracle.lo.as_fraction()
        assert sqrt2_oracle.hi.as_fraction() <= h.hi.as_fraction()
        h2 = house(k.element([4, -1]), 64)  # house(4 - sqrt2) = 4 + sqrt2
        four_plus = 4 + sqrt2_oracle.midpoint().as_fraction()
        assert h2.lo.as_fraction() <= four_plus <= h2.hi.as_fraction()
        k5 = field_new(IntPoly.of(-5, 0, 1), DyadicInterval(Dyadic(2), Dyadic(3)))
        assert is_algebraic_integer(k5.element([Fraction(1, 2), Fraction(1, 2)]))
        assert not is_algebraic_integer(k.element([0, Fraction(1, 2)]))
        rng = random.Random(11)
        for _ in range(25):
            x = k.element([rng.randint(-40, 40), rng.randint(-40, 40)])
            norm = characteristic_polynomial(x)[0]  # (-1)^D chi(0), D = 2
            a, b = x.coords
            assert norm == a * a - 2 * b * b and norm.denominator == 1


def test_c12_cli_determinism(tmp_path):
    from cfindep.cli import main

    with criterion(12, "byte-identical CLI reports", 120):
        out = tmp_path / "r.json"
        blobs = []
        for _ in range(2):
            rc = main(["check-named-example", "ex1", "--N", "4",
                       "--precision", "256", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        for _ in range(2):
            rc = main(["lemma3", "--trials", "300", "--seed", "5", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[2] == blobs[3]
