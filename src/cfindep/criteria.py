"""Finite-prefix checkers for the linear-independence hypotheses.

Each condition of the criterion is verified mechanically for n <= N with
interval evidence and per-index margins.  Asymptotic hypotheses (liminf and
limsup conditions) cannot be decided from a prefix: their "pass" verdicts
mean *prefix-consistent* and are labeled as such in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .bigreal.dyadic import Dyadic
from .bigreal.interval import (
    DyadicInterval,
    from_fraction,
    iv_div,
    iv_exp2,
    iv_log2,
    iv_max,
    iv_mul,
    iv_pow_frac,
    iv_sqrt,
    iv_sub,
    singleton,
)
from .cfcore import scalar_enclosure, scalar_sign
from .errors import IndeterminateAtPrecision
from .numfield import FieldElement, NumberField, embeddings, house, is_algebraic_integer, sigma_eval
from .sequences import CFSpec, spec

__all__ = [
    "Thm1Config",
    "ConditionReport",
    "HypothesisReport",
    "MarginSeries",
    "compute_d",
    "growth_bound",
    "check_decomposition",
    "check_condition10",
    "check_interleaving",
    "ratio_margin",
    "growth_margin",
    "check_all",
    "c2_config",
]

PASS = "pass"
FAIL = "fail"
INDET = "indeterminate"


def compute_d(D: int, M: int) -> int:
    """The growth base d = max(2, D*M - 1)."""
    if D < 1 or M < 1:
        raise ValueError("degree and sequence count must be >= 1")
    return max(2, D * M - 1)


@dataclass
class Thm1Config:
    """A concrete instance of the criterion's hypotheses.

    ``sequences`` are ordered with j=1 the (eventually) largest, matching the
    ratio condition a_{n,j}/a_{n,j+1} > 1.  ``field`` fixes the ambient field
    degree D; None means Q (D=1).  Per-sequence elements may live in their own
    fields (e.g. root families of a reducible polynomial); houses, integrality
    and embedding signs are evaluated against each element's own conjugates.
    """

    M: int
    sequences: list[CFSpec]
    gamma: Fraction = Fraction(1, 2)
    field: NumberField | None = None
    D: int | None = None
    condition5_mode: str = "auto"  # house-half | real-part-sign | auto
    name: str | None = None

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie strictly inside (0, 1)")
        if len(self.sequences) != self.M:
            raise ValueError("sequence count must equal M")
        if self.condition5_mode not in ("house-half", "real-part-sign", "auto"):
            raise ValueError(f"unknown condition5 mode {self.condition5_mode!r}")

    @property
    def degree(self) -> int:
        if self.D is not None:
            return self.D
        return self.field.degree if self.field is not None else 1

    @property
    def d(self) -> int:
        return compute_d(self.degree, self.M)

    def quotient(self, n: int, j: int, prec: int | None = None):
        return self.sequences[j - 1].quotient(n, prec)


@dataclass
class MarginSeries:
    """Per-index margins plus the windowed diagnostics behind a verdict."""

    values: list[DyadicInterval]
    verdict: str
    window_min: DyadicInterval | None = None
    monotonicity: str | None = None
    records: list[int] | None = None


@dataclass
class ConditionReport:
    name: str
    verdict: str
    verified_up_to: int
    margin_series: list[DyadicInterval]
    failing_index: tuple | None = None
    notes: dict = dc_field(default_factory=dict)


@dataclass
class HypothesisReport:
    overall: str
    conditions: list[ConditionReport]
    d: int
    gamma: Fraction
    mode_used: str | None
    name: str | None = None


# ---------------------------------------------------------------------------
# scalar utilities that accept Fraction or FieldElement
# ---------------------------------------------------------------------------

def _house(x, prec: int) -> DyadicInterval:
    if isinstance(x, FieldElement):
        return house(x, prec)
    f = abs(Fraction(x))
    return from_fraction(f, prec)


def _is_alg_int(x) -> bool:
    if isinstance(x, FieldElement):
        return is_algebraic_integer(x)
    return Fraction(x).denominator == 1


def _embedding_re_parts(x, prec: int) -> list[DyadicInterval]:
    """Real parts of all conjugate embeddings of x (own field)."""
    if isinstance(x, FieldElement):
        e = embeddings(x.field, prec)
        return [sigma_eval(e, x, i)[0] for i in range(e.degree)]
    return [from_fraction(Fraction(x), prec)]


def _scalars_equal(a, b) -> bool:
    if isinstance(a, FieldElement) and isinstance(b, FieldElement):
        if a.field is not b.field:
            return a.is_rational() and b.is_rational() and a.as_fraction() == b.as_fraction()
        return a.coords == b.coords
    if isinstance(a, FieldElement):
        return a.is_rational() and a.as_fraction() == Fraction(b)
    if isinstance(b, FieldElement):
        return b.is_rational() and b.as_fraction() == Fraction(a)
    return Fraction(a) == Fraction(b)


# ---------------------------------------------------------------------------
# the right-hand-side growth bound
# ---------------------------------------------------------------------------

def _growth_branches(a_iv: DyadicInterval, n: int, gamma: Fraction, d: int,
                     prec: int) -> tuple[DyadicInterval, DyadicInterval]:
    """The branches 2^((log2 a)^gamma) and 2^(d^(n^gamma)) of the growth bound.

    Exact fast paths keep boundary comparisons decidable: n^gamma is exact for
    perfect powers, making the second branch an exact power of two.  log2(a)
    is clamped at zero so the bound stays evaluable when a quotient dips below
    one (which the decomposition condition reports separately).
    """
    lg = iv_log2(a_iv, prec)
    zero = Dyadic(0)
    lg = DyadicInterval(max(zero, lg.lo), max(zero, lg.hi))
    first = iv_exp2(iv_pow_frac(lg, gamma, prec), prec)
    ng = iv_pow_frac(singleton(n), gamma, prec)
    if ng.is_point() and ng.lo.is_integer():
        second = iv_exp2(singleton(d ** ng.lo.floor()), prec)
    else:
        second = iv_exp2(iv_mul(ng, iv_log2(singleton(d), prec), prec), prec)
    return first, second


def growth_bound(a_value, n: int, gamma: Fraction, d: int, prec: int) -> DyadicInterval:
    """max(2^((log2 a)^gamma), 2^(d^(n^gamma))) as an interval enclosure."""
    a_iv = scalar_enclosure(a_value, prec)
    if a_iv.lo.sign() <= 0:
        raise ValueError("growth bound needs a positive quotient enclosure")
    return iv_max(*_growth_branches(a_iv, n, gamma, d, prec))


def _escalating(attempt, prec: int):
    """Run attempt(work) -> (verdict | None, margin) until the verdict is decided.

    Work starts at ``prec`` and doubles at most five times (up to 32x); a
    verdict still undecided then is indeterminate.  The margin returned is
    the first attempt's, so reports carry margins at the requested precision.
    """
    verdict, margin = attempt(prec)
    for doubling in range(1, 6):
        if verdict is not None:
            break
        verdict, _ = attempt(prec << doubling)
    return (INDET if verdict is None else verdict), margin


# ---------------------------------------------------------------------------
# individual condition evaluators
# ---------------------------------------------------------------------------

def check_decomposition(cfg: Thm1Config, n: int, j: int) -> str:
    """Exact check of a_{n,j} = (S b + c)/d with integral pieces and a >= 1."""
    seq = cfg.sequences[j - 1]
    dec = seq.decomposition(n)
    if dec is None:
        return INDET
    if not isinstance(dec.S, int):
        return FAIL
    if not (_is_alg_int(dec.b) and _is_alg_int(dec.c) and _is_alg_int(dec.d)):
        return FAIL
    recomposed = (dec.S * dec.b + dec.c) / dec.d
    a = cfg.quotient(n, j)
    if not _scalars_equal(recomposed, a):
        return FAIL
    s = scalar_sign(a - 1)
    if s is None or s < 0:
        return FAIL
    return PASS


def _check_house_half(cfg: Thm1Config, n: int, j: int, precision: int):
    """house(1/a_{n,j}) >= 1/2; margin house(1/a) - 1/2."""
    half = from_fraction(Fraction(1, 2), 32)

    def attempt(work):
        a = cfg.quotient(n, j, work)
        if scalar_enclosure(a, work).lo.sign() <= 0:
            return FAIL, None  # quotient not positive; decomposition check owns the witness
        h = _house(a.inverse() if isinstance(a, FieldElement) else 1 / Fraction(a), work)
        verdict = PASS if h.certainly_ge(half) else FAIL if h.certainly_lt(half) else None
        return verdict, iv_sub(h, half, work)

    return _escalating(attempt, precision)


def _check_house_bound(cfg: Thm1Config, n: int, j: int, precision: int):
    """house(b), house(c), house(d) <= growth bound of a_{n,j}; margin bound - worst house."""
    dec = cfg.sequences[j - 1].decomposition(n)
    if dec is None:
        return INDET, None

    def attempt(work):
        a = cfg.quotient(n, j, work)
        if scalar_enclosure(a, work).lo.sign() <= 0:
            return FAIL, None  # quotient not positive; decomposition check owns the witness
        bound = growth_bound(a, n, cfg.gamma, cfg.d, work)
        worst = iv_max(iv_max(_house(dec.b, work), _house(dec.c, work)), _house(dec.d, work))
        verdict = PASS if worst.certainly_le(bound) else FAIL if worst.certainly_gt(bound) else None
        return verdict, iv_sub(bound, worst, work)

    return _escalating(attempt, precision)


def derive_sign_table(cfg: Thm1Config, precision: int) -> dict:
    """Sign table e_{j,sigma} read off from the first index n=1."""
    table: dict[tuple[int, int], int] = {}
    for j in range(1, cfg.M + 1):
        def attempt(work):
            res = _embedding_re_parts(cfg.quotient(1, j, work), work)
            if all(re.lo.sign() > 0 or re.hi.sign() < 0 for re in res):
                return [0 if re.lo.sign() > 0 else 1 for re in res], None
            return None, None

        signs, _ = _escalating(attempt, precision)
        if signs == INDET:
            raise IndeterminateAtPrecision(f"embedding sign of a_(1,{j}) undecided")
        table.update(((j, i), e) for i, e in enumerate(signs))
    return table


def check_condition10(cfg: Thm1Config, n: int, j: int, precision: int,
                      e_table: dict | None = None):
    """(-1)^e * Re(sigma(a_{n,j})) >= 1/bound(a_{n,1}), every embedding sigma.

    Returns (verdict, margin); the margin is the worst signed real part minus
    the right-hand side over all embeddings, or None without a full table.
    """
    table = e_table or derive_sign_table(cfg, precision)

    def attempt(work):
        a, a1 = cfg.quotient(n, j, work), cfg.quotient(n, 1, work)
        if scalar_enclosure(a1, work).lo.sign() <= 0:
            return FAIL, None
        rhs = iv_div(singleton(1), growth_bound(a1, n, cfg.gamma, cfg.d, work), work)
        res = _embedding_re_parts(a, work)
        signs = [table.get((j, i)) for i in range(len(res))]
        if None in signs:
            return FAIL, None
        signed = [re if e == 0 else DyadicInterval(-re.hi, -re.lo) for re, e in zip(res, signs)]
        margin = min((iv_sub(s, rhs, work) for s in signed), key=lambda m: m.lo)
        if any(s.certainly_lt(rhs) for s in signed):
            return FAIL, margin
        if all(s.certainly_ge(rhs) for s in signed):
            return PASS, margin
        return None, margin

    return _escalating(attempt, precision)


def check_interleaving(cfg: Thm1Config, n: int, precision: int):
    """Strict a_{n,1} < max(a_{n,M} * 2^((log2 a_{n,M})^gamma), 2^(d^(n^gamma))).

    Returns (verdict, margin) with margin rhs - lhs, or None when a_{n,M} is
    not positive.
    """
    def attempt(work):
        lhs = scalar_enclosure(cfg.quotient(n, 1, work), work)
        aM_iv = scalar_enclosure(cfg.quotient(n, cfg.M, work), work)
        if aM_iv.lo.sign() <= 0:
            return FAIL, None
        first, second = _growth_branches(aM_iv, n, cfg.gamma, cfg.d, work)
        rhs = iv_max(iv_mul(aM_iv, first, work), second)
        verdict = PASS if lhs.certainly_lt(rhs) else FAIL if lhs.certainly_ge(rhs) else None
        return verdict, iv_sub(rhs, lhs, work)

    return _escalating(attempt, precision)


def ratio_margin(cfg: Thm1Config, j: int, N: int, precision: int) -> MarginSeries:
    """Series sqrt(n) * (a_{n,j}/a_{n,j+1} - 1), with trailing-window verdict.

    The verdict is prefix-consistent only: pass needs a certainly positive
    trailing-window minimum that is not strictly decaying; a nonpositive
    window minimum is a fail witness.  The trailing window is the last
    ceil(N/4) indices, to suppress small-n transients.  An index where
    either quotient is not certainly positive has margin 0.
    """
    if not 1 <= j <= cfg.M - 1:
        raise ValueError("ratio condition needs 1 <= j <= M-1")
    sj, sj1 = cfg.sequences[j - 1], cfg.sequences[j]
    values: list[DyadicInterval] = []
    for n in range(1, N + 1):
        a, b = sj.quotient(n, precision), sj1.quotient(n, precision)
        a_iv, b_iv = scalar_enclosure(a, precision), scalar_enclosure(b, precision)
        if a_iv.lo.sign() <= 0 or b_iv.lo.sign() <= 0:
            values.append(singleton(0))
            continue
        exact_pair = _exact_ratio(a, b)
        if exact_pair is not None:
            diff_enc = scalar_enclosure(exact_pair, precision)
        else:
            diff_enc = iv_sub(iv_div(a_iv, b_iv, precision), singleton(1), precision)
        values.append(iv_mul(iv_sqrt(singleton(n), precision), diff_enc, precision))
    window = values[-max(1, -(-N // 4)):]
    wmin = min(window, key=lambda v: v.lo)
    mono = _window_monotonicity(window)
    if wmin.hi.sign() <= 0:
        verdict = FAIL
    elif wmin.lo.sign() > 0:
        verdict = INDET if mono == "decreasing" else PASS
    else:
        verdict = INDET
    return MarginSeries(values, verdict, window_min=wmin, monotonicity=mono)


def _exact_ratio(a, b):
    """a/b - 1 when exactly computable in a shared domain, else None."""
    if isinstance(a, FieldElement) and isinstance(b, FieldElement) and a.field is b.field:
        return a / b - 1
    if isinstance(a, (FieldElement, DyadicInterval)) or isinstance(b, (FieldElement, DyadicInterval)):
        return None
    return Fraction(a) / Fraction(b) - 1


def _window_monotonicity(window: list[DyadicInterval]) -> str:
    if len(window) < 2:
        return "flat"
    if all(b.lo > a.hi for a, b in zip(window, window[1:])):
        return "increasing"
    if all(b.hi < a.lo for a, b in zip(window, window[1:])):
        return "decreasing"
    return "mixed"


def growth_margin(cfg: Thm1Config, j: int, N: int, precision: int) -> MarginSeries:
    """Series a_{n,j}^(1/d^n) in the log domain, with record tracking.

    pass: at least two strictly increasing records with the final one
    certainly above 2.  fail: a certainly decreasing trailing window that
    stays below 2.  Anything else is indeterminate.
    An index whose quotient is not certainly positive has value 0.
    """
    seq = cfg.sequences[j - 1]
    d = cfg.d
    values: list[DyadicInterval] = []
    records: list[int] = []
    best_hi: Dyadic | None = None
    for n in range(1, N + 1):
        a_iv = scalar_enclosure(seq.quotient(n, precision), precision)
        if a_iv.lo.sign() <= 0:
            g = singleton(0)
        else:
            g = iv_exp2(iv_div(iv_log2(a_iv, precision), singleton(d ** n), precision), precision)
        values.append(g)
        if best_hi is None or g.lo > best_hi:
            records.append(n)
        best_hi = g.hi if best_hi is None else max(best_hi, g.hi)
    thr = singleton(2)
    last_record_val = values[records[-1] - 1] if records else values[0]
    window = values[-max(1, -(-N // 4)):]
    mono = _window_monotonicity(window)
    wmax = max(window, key=lambda v: v.hi)
    if len(records) >= 2 and last_record_val.certainly_gt(thr):
        verdict = PASS
    elif mono == "decreasing" and wmax.certainly_lt(thr):
        verdict = FAIL
    else:
        verdict = INDET
    return MarginSeries(values, verdict, window_min=wmax, monotonicity=mono, records=records)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _fold(name: str, N: int, rows, notes: dict | None = None) -> ConditionReport:
    """Fold rows of (witness, verdict, margin | None), one row per n, into a report.

    The first fail is the witness, else the first indeterminate; each row
    keeps its worst margin by lower endpoint, 0 when it has none.
    """
    verdict, witness, margins = PASS, None, []
    for row in rows:
        worst = None
        for index, v, m in row:
            if v == FAIL and verdict != FAIL:
                verdict, witness = FAIL, index
            elif v == INDET and verdict == PASS:
                verdict, witness = INDET, index
            if m is not None and (worst is None or m.lo < worst.lo):
                worst = m
        margins.append(worst if worst is not None else singleton(0))
    return ConditionReport(name, verdict, N, margins, witness, notes=notes or {})


def _pairs(cfg: Thm1Config, N: int, evaluate):
    """Rows of ((n, j), verdict, margin) over j = 1..M for each n = 1..N."""
    return ([((n, j), *evaluate(n, j)) for j in range(1, cfg.M + 1)] for n in range(1, N + 1))


def check_all(cfg: Thm1Config, N: int, precision: int) -> HypothesisReport:
    """Run every condition for n <= N and aggregate into one report."""

    def decomposition(n, j):
        verdict = check_decomposition(cfg, n, j)
        return verdict, iv_sub(scalar_enclosure(cfg.quotient(n, j, precision), precision),
                               singleton(1), precision)

    conditions = [_fold("decomposition", N, _pairs(cfg, N, decomposition))]
    # house(1/a) >= 1/2, possibly replaced by the sign variant
    mode_used, c5_report = _check_condition5(cfg, N, precision)
    conditions.append(c5_report)
    conditions.append(_fold("house-growth-bound", N, _pairs(
        cfg, N, lambda n, j: _check_house_bound(cfg, n, j, precision))))
    conditions.append(_fold("interleaving", N, (
        [((n,), *check_interleaving(cfg, n, precision))] for n in range(1, N + 1))))

    ratios = {j: ratio_margin(cfg, j, N, precision) for j in range(1, cfg.M)}
    conditions.append(_fold(
        "ratio-liminf", N,
        ([((j,), ms.verdict, ms.values[n - 1]) for j, ms in ratios.items()] for n in range(1, N + 1)),
        notes={"per_j": {j: ms.verdict for j, ms in ratios.items()}, "semantics": "prefix-consistent"},
    ))

    # growth limsup passes when at least one j passes; its series is the last
    # passing j's, else the first j's
    growth = {j: growth_margin(cfg, j, N, precision) for j in range(1, cfg.M + 1)}
    per_j = {j: ms.verdict for j, ms in growth.items()}
    passing = [ms for ms in growth.values() if ms.verdict == PASS]
    g_verdict = PASS if passing else FAIL if all(v == FAIL for v in per_j.values()) else INDET
    conditions.append(
        ConditionReport("growth-limsup", g_verdict, N, (passing[-1] if passing else growth[1]).values,
                        None if g_verdict == PASS else (1,),
                        notes={"per_j": per_j, "quantifier": "any-j",
                               "semantics": "prefix-consistent"})
    )

    verdicts = {c.verdict for c in conditions}
    overall = FAIL if FAIL in verdicts else PASS if verdicts == {PASS} else INDET
    return HypothesisReport(overall, conditions, cfg.d, cfg.gamma, mode_used, cfg.name)


def _check_condition5(cfg: Thm1Config, N: int, precision: int):
    """Try house-half, fall back to the sign condition in auto mode."""
    modes = [cfg.condition5_mode] if cfg.condition5_mode != "auto" else ["house-half", "real-part-sign"]
    for mode in modes:
        if mode == "house-half":
            report = _fold("house-inverse-half", N, _pairs(
                cfg, N, lambda n, j: _check_house_half(cfg, n, j, precision)))
        else:
            try:
                table = derive_sign_table(cfg, precision)
            except IndeterminateAtPrecision:
                report = ConditionReport("real-part-sign", INDET, N, [], (1,),
                                         notes={"reason": "sign table underivable"})
            else:
                report = _fold(
                    "real-part-sign", N,
                    _pairs(cfg, N, lambda n, j: check_condition10(cfg, n, j, precision, e_table=table)),
                    notes={"e_table": {f"{j},{i}": e for (j, i), e in sorted(table.items())}},
                )
        if report.verdict == PASS:
            break
    return mode, report


def c2_config(K: int, base: CFSpec, gamma: Fraction = Fraction(1, 2), name: str | None = None) -> Thm1Config:
    """Convenience constructor: rational quotients a_n/j for j = 1..K."""
    seqs = [spec("div-by-j", base=base, j=j) for j in range(1, K + 1)]
    return Thm1Config(M=K, sequences=seqs, gamma=gamma, field=None, D=1,
                      condition5_mode="auto", name=name)
