"""Byte oracle and rung work for the enclose probes.

Runs every ``enclose`` operation of the benchmark's probe workload in-process
through ``cli.main`` and compares the sha256 of its stdout with the digest
recorded for the same operation id in ``perfbench/reference.json`` (read,
never written).  The operation ids come from ``perfbench/workloads.py``.
"""

from collections import Counter

import pytest

from cfindep import numfield
from cfindep.catalog import build_config
from cfindep.cfcore import enclose_value
from perfbench_data import reference, stdout_digest, workloads

ENCLOSE_OPS = sorted(op["id"] for op in workloads().all_reference_ops()
                     if op["argv"][0] == "enclose")


@pytest.mark.parametrize("op_id", ENCLOSE_OPS)
def test_enclose_probe_report_bytes(op_id):
    assert stdout_digest(op_id.split()) == reference()[op_id]


def test_rung_encloses_only_the_deeper_convergents(monkeypatch):
    # ex1 at N=6 and 1024 bits: the 64-bit pass encloses q_6, q_7 and the
    # order-8 p, q; five rungs are skipped, and the one at (1024 + 16) * 2**5
    # bits meets the coarse bound, so it encloses p and q of orders 8 and 9
    # and never q_6, q_7 at its own precision
    precisions = Counter()
    enclosure = numfield.FieldElement.enclosure

    def counting(self, prec):
        precisions[prec] += 1
        return enclosure(self, prec)

    monkeypatch.setattr(numfield.FieldElement, "enclosure", counting)
    enc = enclose_value(build_config("ex1").sequences[0], 6, 1024)
    assert precisions == {64: 4, (1024 + 16) << 5: 4}
    assert enc.order == 6 and not enc.value.is_point()
