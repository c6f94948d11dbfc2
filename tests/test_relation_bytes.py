"""Byte oracle and early-stop equivalence for the relation probes.

Runs every ``relation`` operation of the benchmark's probe workload
in-process through ``cli.main`` and compares the sha256 of its stdout with
the digest recorded for the same operation id in ``perfbench/reference.json``
(read, never written).  The planted configs come from
``perfbench/workloads.py``.  The same operations, plus planted relations that
keep the lattice short, are then run with the early stop of
``find_relation`` switched off, and every ``RelationResult`` must be equal.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from cfindep import cli, relation
from cfindep.bigreal.interval import from_fraction
from perfbench_data import reference, stdout_digest, workloads

PROBES = (("ex1", 2048), ("ex1", 4096), ("hanluc", 2048), ("c3", 2048),
          ("t2", 2048), ("golden-powers", 1024))


@pytest.mark.parametrize("example,precision", PROBES)
def test_relation_probe_report_bytes(example, precision):
    op_id = f"relation {example} --N 6 --precision {precision}"
    assert stdout_digest(op_id.split()) == reference()[op_id]


def test_planted_relation_report_bytes(tmp_path):
    wl = workloads()
    digests = reference()
    for variant in range(wl.VARIANTS):
        op = wl.planted_op(variant)
        path = tmp_path / f"planted{variant}.json"
        path.write_text(json.dumps(op["config"]), encoding="utf-8")
        assert stdout_digest(op["argv"] + ["--config", str(path)]) == digests[op["id"]], op["id"]


def _relation_results(argv: list[str], monkeypatch) -> list:
    """Every RelationResult that find_relation returns during one cli run."""
    seen = []
    search = relation.find_relation

    def recording(*args):
        seen.append(search(*args))
        return seen[-1]

    with monkeypatch.context() as mp:
        mp.setattr(relation, "find_relation", recording)
        mp.setattr(cli, "find_relation", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert seen
    return seen


def _without_stop(run, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(relation, "_rules_out", lambda *args: False)
        return run()


@pytest.mark.parametrize("example,precision", PROBES)
def test_early_stop_equals_full_search_on_probes(example, precision, monkeypatch):
    argv = f"relation {example} --N 6 --precision {precision}".split()
    stopped = _relation_results(argv, monkeypatch)
    assert stopped == _without_stop(lambda: _relation_results(argv, monkeypatch), monkeypatch)
    assert [r.status for r in stopped] == ["none_below_height"]


def test_early_stop_equals_full_search_on_planted_configs(tmp_path, monkeypatch):
    wl = workloads()
    for variant in range(wl.VARIANTS):
        op = wl.planted_op(variant)
        path = tmp_path / f"planted{variant}.json"
        path.write_text(json.dumps(op["config"]), encoding="utf-8")
        argv = op["argv"] + ["--config", str(path)]
        stopped = _relation_results(argv, monkeypatch)
        assert stopped == _without_stop(lambda: _relation_results(argv, monkeypatch), monkeypatch)
        assert stopped[0].coefficients == op["expect"]["coefficients"]


def _planted(coeffs: list[int], precision: int, seed: int) -> list:
    """Values x_1..x_k and sum coeffs_i x_i, enclosed to 2**-(precision + 64)."""
    rng = random.Random(seed)
    bits = precision + 64
    exact = [Fraction(rng.getrandbits(bits), 2 ** bits) for _ in coeffs]
    target = sum(c * x for c, x in zip(coeffs, exact))
    return [from_fraction(x, bits) for x in exact + [target]]


@pytest.mark.parametrize("coeffs,height,precision", [
    ([7, -3, 5], 100, 1024),          # found after several stages
    ([101, -4, 9], 100, 1024),        # height H + 1 searched with height H
    ([-11, 2, 3, 8, 1], 10, 2048),    # height H + 1 with six values
    ([37, -12, 5, 88, -3], 100, 4096),  # six values at 4096 bits
])
def test_early_stop_equals_full_search_on_short_vectors(coeffs, height, precision, monkeypatch):
    values = _planted(coeffs, precision, precision + len(coeffs))
    verdicts = []
    rules_out = relation._rules_out

    def recording(*args):
        verdicts.append(rules_out(*args))
        return verdicts[-1]

    monkeypatch.setattr(relation, "_rules_out", recording)
    stopped = relation.find_relation(values, height, precision)
    assert verdicts and not any(verdicts)  # the short relation keeps the stop false
    full = _without_stop(lambda: relation.find_relation(values, height, precision), monkeypatch)
    assert stopped == full
    assert stopped.found == (max(map(abs, coeffs)) <= height)


def test_early_stop_fires_on_ex1_at_4096_bits(monkeypatch):
    verdicts = []
    rules_out = relation._rules_out

    def recording(reduced, height, slack):
        verdicts.append((slack, rules_out(reduced, height, slack)))
        return verdicts[-1][1]

    monkeypatch.setattr(relation, "_rules_out", recording)
    _relation_results("relation ex1 --N 6 --precision 4096".split(), monkeypatch)
    assert verdicts == [(1, True)]  # stops after the first, STEP-bit stage


@pytest.mark.parametrize("example,precision", PROBES)
def test_catalog_probe_stops_after_one_reduction(example, precision, monkeypatch):
    reductions = []
    verdicts = []
    lll_reduce, rules_out = relation.lll_reduce, relation._rules_out

    def counting(basis):
        reductions.append(max(abs(x).bit_length() for row in basis for x in row))
        return lll_reduce(basis)

    def recording(*args):
        verdicts.append(rules_out(*args))
        return verdicts[-1]

    monkeypatch.setattr(relation, "lll_reduce", counting)
    monkeypatch.setattr(relation, "_rules_out", recording)
    _relation_results(f"relation {example} --N 6 --precision {precision}".split(), monkeypatch)
    assert len(reductions) == 1 and reductions[0] <= relation.STEP + 8  # the STEP-bit stage
    assert verdicts[0] is True
