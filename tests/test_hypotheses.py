"""The hypothesis records: one place for each hypothesis's statement, reading
and evaluation, and what the records promise.

Reports print each record's statement, the README lists every record, and
each per-index record and series gives the same decided verdicts and
overlapping margins at p and at 2p bits.
"""

import ast
import inspect
from pathlib import Path

import pytest

from cfindep import cli, criteria
from cfindep.catalog import build_config, catalog
from cfindep.criteria import HYPOTHESES, QuotientTable

README = Path(__file__).resolve().parents[1] / "README.md"

_PAIR = {"big": {"kind": "doubly-exponential", "d": 3},
         "small": {"kind": "div-by-j", "j": 2, "base": {"kind": "doubly-exponential", "d": 3}}}


@pytest.mark.parametrize("mode", ["house-half", "real-part-sign"])
def test_reports_print_each_records_statement(mode):
    cfg = cli.RunConfig("check-theorem1", sequences=_PAIR,
                        params={"order": ["big", "small"], "N": 3, "mode": mode})
    _, report, _ = cli.run(cfg)
    conditions = report["result"]["conditions"]
    assert [c["name"] for c in conditions] == [h.name for h in HYPOTHESES.values()
                                               if h.mode in (None, mode)]
    assert all(c["inequality"] == HYPOTHESES[c["name"]].statement for c in conditions)


def test_growth_bound_statements_share_one_bound():
    bound = "2^(d^(n^gamma)))"
    with_bound = [h.name for h in HYPOTHESES.values() if bound in h.statement]
    assert with_bound == ["real-part-sign", "house-growth-bound", "interleaving"]
    assert all(HYPOTHESES[name].reading.endswith(criteria._BRANCH) for name in with_bound)


def test_check_all_names_no_checker():
    # check_all folds over the records; only the records name the checkers
    checkers = {"check_decomposition", "check_condition10", "check_interleaving",
                "_check_house_half", "_check_house_bound", "ratio_margin", "growth_margin"}
    for fn in (criteria.check_all, criteria._check_condition5):
        names = {node.id for node in ast.walk(ast.parse(inspect.getsource(fn)))
                 if isinstance(node, ast.Name)}
        assert names & checkers == set(), fn.__name__


def test_readme_hypothesis_table_matches_the_records():
    text = README.read_text(encoding="utf-8")
    header = "| name | scope | statement | reading |\n|---|---|---|---|\n"
    table = text[text.index(header) + len(header):].split("\n\n", 1)[0].splitlines()
    rows = [tuple(cell.strip().strip("`") for cell in row.split("|")[1:-1]) for row in table]
    assert rows == [(h.name, h.scope, h.statement, h.reading) for h in HYPOTHESES.values()]


def _per_index(h, table, N, precision):
    """{index: (verdict, margin)} of a per-index record."""
    return {index: (v, m) for row in h.rows(table, N, precision) for index, v, m in row}


def _series(h, table, N, precision):
    """{j: MarginSeries} of a series record; ratio-liminf compares j with j + 1."""
    js = range(1, table.M) if h.name == "ratio-liminf" else range(1, table.M + 1)
    return {j: h.evaluate(table, j, N, precision) for j in js}


@pytest.mark.parametrize("name", list(catalog()))
def test_verdicts_and_margins_hold_at_doubled_precision(name):
    # each precision reads a fresh table; a verdict decided at p is the same
    # at 2p, and each margin at 2p meets the one at p (per index, not the
    # folded row, whose worst j can differ between the two)
    cfg, defaults = build_config(name), catalog()[name].defaults
    N, p = defaults["N"], defaults["precision"]
    low, high = QuotientTable(cfg), QuotientTable(cfg)
    for h in HYPOTHESES.values():
        if h.scope == "j":
            at_p, at_2p = _series(h, low, N, p), _series(h, high, N, 2 * p)
            pairs = [(at_p[j].verdict, at_2p[j].verdict, list(zip(at_p[j].values, at_2p[j].values)))
                     for j in at_p]
        else:
            at_p, at_2p = _per_index(h, low, N, p), _per_index(h, high, N, 2 * p)
            pairs = [(at_p[k][0], at_2p[k][0], [(at_p[k][1], at_2p[k][1])]) for k in at_p]
        for verdict, doubled, margins in pairs:
            assert verdict == "indeterminate" or doubled == verdict, h.name
            for m, m2 in margins:
                assert (m is None) == (m2 is None) and (m is None or m.intersects(m2)), h.name
