"""Finite-prefix checkers for the linear-independence hypotheses.

Each condition of the criterion is verified mechanically for n <= N with
interval evidence and per-index margins.  Asymptotic hypotheses (liminf and
limsup conditions) cannot be decided from a prefix: their "pass" verdicts
mean *prefix-consistent* and are labeled as such in reports.
"""

from __future__ import annotations

import functools
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
from .cfcore import scalar, scalar_at_least_one, scalar_enclosure
from .errors import IndeterminateAtPrecision
from .numfield import NumberField
from .sequences import CFSpec

__all__ = [
    "Thm1Config",
    "QuotientTable",
    "ConditionReport",
    "HypothesisReport",
    "MarginSeries",
    "HYPOTHESES",
    "compute_d",
    "growth_bound",
    "check_decomposition",
    "check_condition10",
    "check_interleaving",
    "ratio_margin",
    "growth_margin",
    "check_all",
]

PASS = "pass"
FAIL = "fail"
INDET = "indeterminate"


def compute_d(D: int, M: int) -> int:
    """The growth base d = max(2, D*M - 1)."""
    if D < 1 or M < 1:
        raise ValueError("degree and sequence count must be >= 1")
    return max(2, D * M - 1)


class Thm1Config:
    """A concrete instance of the criterion's hypotheses.

    ``sequences`` are ordered with j=1 the (eventually) largest, matching the
    ratio condition a_{n,j}/a_{n,j+1} > 1; M is their count.  ``field`` fixes the ambient field
    degree D; None means Q (D=1).  Per-sequence elements may live in their own
    fields (e.g. root families of a reducible polynomial); houses, integrality
    and embedding signs are evaluated against each element's own conjugates.
    ``condition5_mode`` is house-half, real-part-sign or auto.
    """

    def __init__(self, sequences: list[CFSpec], gamma: Fraction = Fraction(1, 2),
                 field: NumberField | None = None, D: int | None = None,
                 condition5_mode: str = "auto", name: str | None = None):
        if not 0 < gamma < 1:
            raise ValueError("gamma must lie strictly inside (0, 1)")
        if condition5_mode not in ("house-half", "real-part-sign", "auto"):
            raise ValueError(f"unknown condition5 mode {condition5_mode!r}")
        self.sequences, self.gamma, self.field, self.D = sequences, gamma, field, D
        self.M, self.condition5_mode, self.name = len(sequences), condition5_mode, name

    @property
    def degree(self) -> int:
        if self.D is not None:
            return self.D
        return self.field.degree if self.field is not None else 1

    @property
    def d(self) -> int:
        return compute_d(self.degree, self.M)


class MarginSeries:
    """Per-index margins, the verdict on them and, for growth, the record indices."""

    def __init__(self, values: list[DyadicInterval], verdict: str, records: list[int] | None = None):
        self.values, self.verdict, self.records = values, verdict, records


class ConditionReport:
    def __init__(self, name: str, verdict: str, verified_up_to: int,
                 margin_series: list[DyadicInterval], failing_index: tuple | None = None,
                 notes: dict | None = None):
        self.name, self.verdict, self.verified_up_to = name, verdict, verified_up_to
        self.margin_series, self.failing_index = margin_series, failing_index
        self.notes = {} if notes is None else notes

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is ConditionReport else NotImplemented


class HypothesisReport:
    def __init__(self, overall: str, conditions: list[ConditionReport], d: int, gamma: Fraction,
                 mode_used: str | None, name: str | None = None):
        self.overall, self.conditions, self.d, self.gamma = overall, conditions, d, gamma
        self.mode_used, self.name = mode_used, name

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is HypothesisReport else NotImplemented


# ---------------------------------------------------------------------------
# the right-hand-side growth bound
# ---------------------------------------------------------------------------

def _growth_branches(a_iv: DyadicInterval, n: int, gamma: Fraction, d: int,
                     prec: int) -> tuple[DyadicInterval, DyadicInterval]:
    """The branches 2^((log2 a)^gamma) and 2^(d^(n^gamma)) of the growth bound,
    the second as ``_BRANCH`` reads it.

    log2(a) is clamped at zero so the bound stays evaluable when a quotient
    dips below one (which the decomposition condition reports separately).
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


def growth_bound(a_iv: DyadicInterval, n: int, gamma: Fraction, d: int, prec: int) -> DyadicInterval:
    """The larger of the two branches of the growth bound, from an enclosure of a."""
    if a_iv.lo.sign() <= 0:
        raise ValueError("growth bound needs a positive quotient enclosure")
    return iv_max(*_growth_branches(a_iv, n, gamma, d, prec))


# ---------------------------------------------------------------------------
# the quotient table: one per check_all call
# ---------------------------------------------------------------------------

def _once(method):
    """A table method computed once per argument tuple, kept in the table."""
    @functools.wraps(method)
    def memoized(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return memoized


class QuotientTable:
    """What the conditions of one ``check_all`` call read off the a_{n,j}.

    Every answer is computed once: a quotient per (n, j), everything rounded
    per (n, j, work), and a growth bound per distinct argument.  The table
    lives for one call and is shared with no other, so it needs no lock.
    """

    def __init__(self, cfg: Thm1Config):
        self.cfg, self.M, self.gamma, self.d = cfg, cfg.M, cfg.gamma, cfg.d
        self._memo: dict = {}

    @_once
    def quotient(self, n: int, j: int) -> tuple:
        """(a_{n,j}, how to read it)."""
        return scalar(self.cfg.sequences[j - 1].quotient(n))

    @_once
    def decomposition(self, n: int, j: int):
        return self.cfg.sequences[j - 1].decomposition(n)

    @_once
    def enclosure(self, n: int, j: int, work: int) -> DyadicInterval:
        x, how = self.quotient(n, j)
        return how.enclosure(x, work)

    def bound(self, n: int, j: int, work: int) -> DyadicInterval:
        """The growth bound of a positive a_{n,j}; equal quotients share one."""
        return self._bound(n, self.enclosure(n, j, work), work)

    @_once
    def _bound(self, n: int, a_iv: DyadicInterval, work: int) -> DyadicInterval:
        return growth_bound(a_iv, n, self.gamma, self.d, work)

    @_once
    def branches(self, n: int, j: int, work: int) -> tuple[DyadicInterval, DyadicInterval]:
        """The two branches of the growth bound of a positive a_{n,j}."""
        return _growth_branches(self.enclosure(n, j, work), n, self.gamma, self.d, work)

    @_once
    def inverse_house(self, n: int, j: int, work: int) -> DyadicInterval:
        """house(1/a_{n,j}) of a positive a_{n,j}."""
        x, how = self.quotient(n, j)
        return how.inverse_house(x, work)

    @_once
    def re_parts(self, n: int, j: int, work: int) -> list[DyadicInterval]:
        """Real parts of every conjugate embedding of a_{n,j} (own field)."""
        x, how = self.quotient(n, j)
        return how.re_parts(x, work)

    @_once
    def exact_ratio(self, n: int, j: int):
        """a_{n,j}/a_{n,j+1} - 1 when both lie in one domain, else None."""
        (a, sa), (b, sb) = self.quotient(n, j), self.quotient(n, j + 1)
        return a / b - 1 if sa.field(a) is sb.field(b) else None

    @_once
    def sign_table(self, precision: int) -> dict:
        """The sign table e_{j,sigma}, read off from the first index n = 1."""
        signs: dict[tuple[int, int], int] = {}
        for j in range(1, self.M + 1):
            def attempt(work):
                res = self.re_parts(1, j, work)
                if all(re.lo.sign() > 0 or re.hi.sign() < 0 for re in res):
                    return [0 if re.lo.sign() > 0 else 1 for re in res], None
                return None, None

            e, _ = _escalating(attempt, precision)
            if e == INDET:
                raise IndeterminateAtPrecision(f"embedding sign of a_(1,{j}) undecided")
            signs.update(((j, i), s) for i, s in enumerate(e))
        return signs


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
# individual condition evaluators, each reading a QuotientTable
# ---------------------------------------------------------------------------

def check_decomposition(table: QuotientTable, n: int, j: int) -> str:
    """Exact check of a_{n,j} = (S b + c)/d with integral pieces and a >= 1."""
    dec = table.decomposition(n, j)
    if dec is None:
        return INDET
    if not isinstance(dec.S, int):
        return FAIL
    if not all(how.is_integral(x) for x, how in map(scalar, (dec.b, dec.c, dec.d))):
        return FAIL
    (a, sa), (r, sr) = table.quotient(n, j), scalar((dec.S * dec.b + dec.c) / dec.d)
    return PASS if sa.key(a) == sr.key(r) and scalar_at_least_one(a) else FAIL


def _at_most(table: QuotientTable, n: int, k: int, precision: int, sides, strict: bool = False):
    """lhs <= rhs (lhs < rhs when ``strict``) for (lhs, rhs) = sides(work); margin rhs - lhs.

    A nonpositive a_{n,k} fails with no margin: the decomposition check owns
    that witness.
    """
    def attempt(work):
        if table.enclosure(n, k, work).lo.sign() <= 0:
            return FAIL, None
        lhs, rhs = sides(work)
        if strict:
            holds, fails = lhs.certainly_lt(rhs), lhs.certainly_ge(rhs)
        else:
            holds, fails = lhs.certainly_le(rhs), lhs.certainly_gt(rhs)
        return (PASS if holds else FAIL if fails else None), iv_sub(rhs, lhs, work)

    return _escalating(attempt, precision)


def _check_house_half(table: QuotientTable, n: int, j: int, precision: int):
    """house(1/a_{n,j}) >= 1/2; margin house(1/a) - 1/2."""
    half = from_fraction(Fraction(1, 2), 32)
    return _at_most(table, n, j, precision, lambda work: (half, table.inverse_house(n, j, work)))


def _check_house_bound(table: QuotientTable, n: int, j: int, precision: int):
    """house(b), house(c), house(d) <= growth bound of a_{n,j}; margin bound - worst house."""
    dec = table.decomposition(n, j)
    if dec is None:
        return INDET, None
    pieces = [scalar(x) for x in (dec.b, dec.c, dec.d)]

    def sides(work):
        hb, hc, hd = (how.house(x, work) for x, how in pieces)
        return iv_max(iv_max(hb, hc), hd), table.bound(n, j, work)

    return _at_most(table, n, j, precision, sides)


def check_condition10(table: QuotientTable, n: int, j: int, precision: int):
    """The real-part-sign check at (n, j): (verdict, margin), the margin the worst
    signed real part minus 1/bound(a_{n,1}), or None without a full sign table."""
    signs = table.sign_table(precision)

    def attempt(work):
        if table.enclosure(n, 1, work).lo.sign() <= 0:
            return FAIL, None
        rhs = iv_div(singleton(1), table.bound(n, 1, work), work)
        res = table.re_parts(n, j, work)
        e = [signs.get((j, i)) for i in range(len(res))]
        if None in e:
            return FAIL, None
        signed = [re if s == 0 else DyadicInterval(-re.hi, -re.lo) for re, s in zip(res, e)]
        margin = min((iv_sub(s, rhs, work) for s in signed), key=lambda m: m.lo)
        if any(s.certainly_lt(rhs) for s in signed):
            return FAIL, margin
        if all(s.certainly_ge(rhs) for s in signed):
            return PASS, margin
        return None, margin

    return _escalating(attempt, precision)


def check_interleaving(table: QuotientTable, n: int, precision: int):
    """The interleaving check at n: (verdict, margin rhs - lhs), the margin None
    when a_{n,M} is not positive."""
    def sides(work):
        aM_iv = table.enclosure(n, table.M, work)
        first, second = table.branches(n, table.M, work)
        return table.enclosure(n, 1, work), iv_max(iv_mul(aM_iv, first, work), second)

    return _at_most(table, n, table.M, precision, sides, strict=True)


def ratio_margin(table: QuotientTable, j: int, N: int, precision: int) -> MarginSeries:
    """Series sqrt(n) * (a_{n,j}/a_{n,j+1} - 1), with the prefix-consistent
    verdict the ratio-liminf record reads; a nonpositive minimum over the
    trailing window is a fail witness.  An index where either quotient is not
    certainly positive has margin 0.
    """
    if not 1 <= j <= table.M - 1:
        raise ValueError("ratio condition needs 1 <= j <= M-1")
    values: list[DyadicInterval] = []
    for n in range(1, N + 1):
        a_iv, b_iv = table.enclosure(n, j, precision), table.enclosure(n, j + 1, precision)
        if a_iv.lo.sign() <= 0 or b_iv.lo.sign() <= 0:
            values.append(singleton(0))
            continue
        ratio = table.exact_ratio(n, j)
        if ratio is not None:
            diff_enc = scalar_enclosure(ratio, precision)
        else:
            diff_enc = iv_sub(iv_div(a_iv, b_iv, precision), singleton(1), precision)
        values.append(iv_mul(iv_sqrt(singleton(n), precision), diff_enc, precision))
    window, falling = _trailing_window(values, N)
    wmin = min(window, key=lambda v: v.lo)
    if wmin.hi.sign() <= 0:
        verdict = FAIL
    elif wmin.lo.sign() > 0:
        verdict = INDET if falling else PASS
    else:
        verdict = INDET
    return MarginSeries(values, verdict)


def _trailing_window(values: list[DyadicInterval], N: int) -> tuple[list[DyadicInterval], bool]:
    """The last ceil(N/4) values, which skip small-n transients, and whether
    they certainly decrease strictly."""
    window = values[-max(1, -(-N // 4)):]
    return window, len(window) > 1 and all(b.hi < a.lo for a, b in zip(window, window[1:]))


def growth_margin(table: QuotientTable, j: int, N: int, precision: int) -> MarginSeries:
    """Series a_{n,j}^(1/d^n) in the log domain, with record tracking and the
    prefix-consistent verdict the growth-limsup record reads; a strictly
    decreasing trailing window that stays certainly below 2 is a fail witness.
    An index whose quotient is not certainly positive has value 0.
    """
    d = table.d
    values: list[DyadicInterval] = []
    records: list[int] = []
    best_hi: Dyadic | None = None
    for n in range(1, N + 1):
        a_iv = table.enclosure(n, j, precision)
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
    window, falling = _trailing_window(values, N)
    wmax = max(window, key=lambda v: v.hi)
    if len(records) >= 2 and last_record_val.certainly_gt(thr) and not falling:
        verdict = PASS
    elif falling and wmax.certainly_lt(thr):
        verdict = FAIL
    else:
        verdict = INDET
    return MarginSeries(values, verdict, records=records)


# ---------------------------------------------------------------------------
# the hypotheses, one record each, and their aggregation
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


def _while_passing(rows):
    """The rows up to and including the first with a verdict other than pass."""
    for row in rows:
        yield row
        if any(verdict != PASS for _, verdict, _ in row):
            return


def _ratio_report(h, table: QuotientTable, N: int, precision: int) -> ConditionReport:
    """One row per n of every j's verdict and margin, j = 1..M-1."""
    ratios = {j: h.evaluate(table, j, N, precision) for j in range(1, table.M)}
    rows = ([((j,), ms.verdict, ms.values[n - 1]) for j, ms in ratios.items()] for n in range(1, N + 1))
    return _fold(h.name, N, rows, notes={"per_j": {j: ms.verdict for j, ms in ratios.items()},
                                         "semantics": "prefix-consistent"})


def _growth_report(h, table: QuotientTable, N: int, precision: int) -> ConditionReport:
    """Pass when at least one j passes; the series is the last passing j's, else the first j's."""
    growth = {j: h.evaluate(table, j, N, precision) for j in range(1, table.M + 1)}
    per_j = {j: ms.verdict for j, ms in growth.items()}
    passing = [ms for ms in growth.values() if ms.verdict == PASS]
    verdict = PASS if passing else FAIL if all(v == FAIL for v in per_j.values()) else INDET
    return ConditionReport(h.name, verdict, N, (passing[-1] if passing else growth[1]).values,
                           None if verdict == PASS else (1,),
                           notes={"per_j": per_j, "quantifier": "any-j", "semantics": "prefix-consistent"})


def _sign_report(h, table: QuotientTable, N: int, precision: int) -> ConditionReport:
    """The fold of the rows, with the sign table they read; indeterminate without one."""
    try:
        signs = table.sign_table(precision)
    except IndeterminateAtPrecision:
        return ConditionReport(h.name, INDET, N, [], (1,), notes={"reason": "sign table underivable"})
    return _fold(h.name, N, h.rows(table, N, precision),
                 notes={"e_table": {f"{j},{i}": e for (j, i), e in sorted(signs.items())}})


class Hypothesis:
    """One hypothesis: report name, scope, statement, the reading taken where
    the paper's abstract leaves it open, and evaluation.  At scope "(n, j)" or
    "n", ``evaluate(table, n, j, precision)`` gives (verdict, margin | None),
    j None at "n"; at "j", ``evaluate(table, j, N, precision)`` gives a
    MarginSeries.  ``fold`` replaces the plain fold of the rows into a report;
    ``mode`` names the condition-5 variant a record is."""

    def __init__(self, name: str, scope: str, statement: str, reading: str, evaluate,
                 fold=None, mode: str | None = None):
        self.name, self.scope, self.statement, self.reading = name, scope, statement, reading
        self.evaluate, self.fold, self.mode = evaluate, fold, mode

    def rows(self, table: QuotientTable, N: int, precision: int):
        """Rows of (index, verdict, margin | None), one per n = 1..N, lazily."""
        js = [None] if self.scope == "n" else range(1, table.M + 1)
        for n in range(1, N + 1):
            yield [((n,) if j is None else (n, j), *self.evaluate(table, n, j, precision)) for j in js]

    def check(self, table: QuotientTable, N: int, precision: int) -> ConditionReport:
        if self.fold is not None:
            return self.fold(self, table, N, precision)
        return _fold(self.name, N, self.rows(table, N, precision))


# the growth bound as the statements print it, and _growth_branches's second branch
_BOUND = "max({}2^((log2 a_{{n,{}}})^gamma), 2^(d^(n^gamma)))"
_BRANCH = ("the bound's second branch is 2^(d^(n^gamma)) when n^gamma is an integer, "
           "and d^(n^gamma) otherwise")

# The evaluations call the public checkers through their module names, so a
# wrapper bound to a name (the benchmark's tracer, a test's counter) sees every call.
HYPOTHESES = {h.name: h for h in [
    Hypothesis(
        "decomposition", "(n, j)",
        "a = (S*b + c)/d with S integral, b/c/d algebraic integers, a >= 1",
        "each a_{n,j} is read in its own field; D is the config field's degree, and "
        "check-theorem1 without a field takes the first field among its sequences",
        lambda table, n, j, precision: (check_decomposition(table, n, j),
                                        iv_sub(table.enclosure(n, j, precision), singleton(1), precision))),
    Hypothesis(
        "house-inverse-half", "(n, j)", "house(1/a_{n,j}) >= 1/2",
        "condition 5 is house-half or real-part-sign; auto mode reports house-half only when "
        "every index passes it",
        _check_house_half, mode="house-half"),
    Hypothesis(
        "real-part-sign", "(n, j)",
        "(-1)^e_{j,sigma} Re(sigma(a_{n,j})) >= " + _BOUND.format("", 1) + "^-1",
        "the sign table e_{j,sigma} is read at n = 1, over each element's own field; " + _BRANCH,
        lambda table, n, j, precision: check_condition10(table, n, j, precision),
        fold=_sign_report, mode="real-part-sign"),
    Hypothesis(
        "house-growth-bound", "(n, j)",
        "house(b), house(c), house(d) <= " + _BOUND.format("", "j"), _BRANCH, _check_house_bound),
    Hypothesis(
        "interleaving", "n", "a_{n,1} < " + _BOUND.format("a_{n,M} ", "M"), _BRANCH,
        lambda table, n, j, precision: check_interleaving(table, n, precision)),
    Hypothesis(
        "ratio-liminf", "j", "liminf sqrt(n) (a_{n,j}/a_{n,j+1} - 1) > 0",
        "liminf > 0 means a certainly positive minimum over the trailing window, the last "
        "ceil(N/4) indices, and a window that is not strictly decreasing",
        lambda table, j, N, precision: ratio_margin(table, j, N, precision), fold=_ratio_report),
    Hypothesis(
        "growth-limsup", "j", "limsup a_{n,j}^(1/d^n) = infinity",
        "limsup = infinity means at least two increasing records, the last certainly above 2, "
        "and a trailing window that is not strictly decreasing; at least one j must pass",
        lambda table, j, N, precision: growth_margin(table, j, N, precision), fold=_growth_report),
]}


def check_all(cfg: Thm1Config, N: int, precision: int) -> HypothesisReport:
    """Fold every record for n <= N into one report, all reading one
    ``QuotientTable`` that lives only for this call."""
    table = QuotientTable(cfg)
    mode_used, conditions = None, []
    for h in HYPOTHESES.values():
        if h.mode is None:
            conditions.append(h.check(table, N, precision))
        elif mode_used is None:
            mode_used, report = _check_condition5(table, N, precision)
            conditions.append(report)
    verdicts = {c.verdict for c in conditions}
    overall = FAIL if FAIL in verdicts else PASS if verdicts == {PASS} else INDET
    return HypothesisReport(overall, conditions, table.d, cfg.gamma, mode_used, cfg.name)


def _check_condition5(table: QuotientTable, N: int, precision: int):
    """(mode, report) of condition 5: the configured variant, or in auto mode
    house-half, stopped at its first row that does not pass, then real-part-sign."""
    variants = {h.mode: h for h in HYPOTHESES.values() if h.mode}
    auto = table.cfg.condition5_mode == "auto"
    for mode in variants if auto else [table.cfg.condition5_mode]:
        h = variants[mode]
        if auto and mode == "house-half":
            report = _fold(h.name, N, _while_passing(h.rows(table, N, precision)))
        else:
            report = h.check(table, N, precision)
        if report.verdict == PASS:
            break
    return mode, report
