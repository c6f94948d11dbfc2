"""Byte oracle for the exact workload.

Runs every operation of the benchmark's ``exact`` workload that has a
reference digest in-process through ``cli.main`` and compares the sha256 of
its stdout with the digest recorded for the same operation id in
``perfbench/reference.json`` (read, never written).  The lemma-suite ids come
from ``lemma_op`` of ``perfbench/workloads.py``, for every seed variant.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from cfindep import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reference() -> dict:
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("op_id", [
    "remark --N 2000",
    "lemma1 --N 200",
    "convergents --example c4 --N 6",
    "convergents --example golden-powers --N 6",
])
def test_exact_report_bytes(op_id):
    assert _stdout_digest(op_id.split()) == _reference()[op_id]


@pytest.mark.parametrize("task", ["lemma2", "lemma3"])
def test_lemma_suite_report_bytes(task):
    workloads = _workloads()
    reference = _reference()
    for variant in range(workloads.VARIANTS):
        op = workloads.lemma_op(task, variant)
        assert _stdout_digest(op["argv"]) == reference[op["id"]], op["id"]
