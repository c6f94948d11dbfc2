"""Byte oracle for the exact workload.

Runs every operation of the benchmark's ``exact`` workload that has a
reference digest in-process through ``cli.main`` and compares the sha256 of
its stdout with the digest recorded for the same operation id in
``perfbench/reference.json`` (read, never written).  The lemma-suite ids come
from ``lemma_op`` of ``perfbench/workloads.py``, for every seed variant.
"""

import pytest

from perfbench_data import reference, stdout_digest, workloads


@pytest.mark.parametrize("op_id", [
    "remark --N 2000",
    "lemma1 --N 200",
    "convergents --example c4 --N 6",
    "convergents --example golden-powers --N 6",
])
def test_exact_report_bytes(op_id):
    assert stdout_digest(op_id.split()) == reference()[op_id]


@pytest.mark.parametrize("task", ["lemma2", "lemma3"])
def test_lemma_suite_report_bytes(task):
    wl = workloads()
    digests = reference()
    for variant in range(wl.VARIANTS):
        op = wl.lemma_op(task, variant)
        assert stdout_digest(op["argv"]) == digests[op["id"]], op["id"]
