"""Golden digests of hypothesis reports: the equivalence oracle for refactors.

For every catalog entry the canonical report bytes of
``check-named-example NAME --N 3`` are hashed; the same run also hashes the
exact ``HypothesisReport`` (every margin endpoint as mantissa and exponent),
which the decimal report text rounds away.  A few hand-built configs cover
paths the catalog never takes: precision escalation, a condition-10 failure,
an explicit house-half pass and a quotient below one.

Regenerate (only when reports are meant to change):
    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cfindep import cli
from cfindep.catalog import catalog
from cfindep.criteria import Thm1Config, check_all
from cfindep.sequences import Decomposition, spec, sqrt2_field

GOLDEN = Path(__file__).with_name("golden_reports.json")


def report_digest(rep) -> str:
    """sha256 over every verdict, witness, note and exact margin endpoint."""
    parts = [rep.overall, rep.d, rep.gamma, rep.mode_used, rep.name]
    for c in rep.conditions:
        parts.append((
            c.name, c.verdict, c.verified_up_to, c.failing_index, c.notes,
            [(m.lo.man, m.lo.exp, m.hi.man, m.hi.exp) for m in c.margin_series],
        ))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _escalation_config() -> Thm1Config:
    # house(1/a) sits 2^-202 below 1/2: undecidable at 128 bits, fails at 256
    f = sqrt2_field()
    val = f.element([2 + Fraction(1, 2 ** 199), Fraction(1, 2 ** 200)])
    s = spec("custom", field=f, fn=lambda n: val)
    return Thm1Config(sequences=[s], gamma=Fraction(1, 2), field=f,
                      condition5_mode="house-half")


def _condition10_fail_config() -> Thm1Config:
    # the sign table read at n=1 (both embeddings positive) breaks at n=2,
    # where 1 - 2 sqrt2 < 0; the identity embedding stays positive throughout
    f = sqrt2_field()
    s = spec("custom", field=f, fn=lambda n: f.element([3, 1] if n % 2 else [1, 2]))
    return Thm1Config(sequences=[s], gamma=Fraction(1, 2), field=f,
                      condition5_mode="real-part-sign")


def _house_half_pass_config() -> Thm1Config:
    f = sqrt2_field()
    val = f.element([0, 1])
    s = spec("custom", field=f, fn=lambda n: val,
             decomp_fn=lambda n: Decomposition(1, f.generator(), f.zero(), f.one()))
    return Thm1Config(sequences=[s], gamma=Fraction(1, 2), field=f,
                      condition5_mode="house-half")


def _below_one_config() -> Thm1Config:
    return Thm1Config(sequences=[spec("constant", value=Fraction(5)),
                                 spec("constant", value=Fraction(1, 3))],
                      gamma=Fraction(1, 2))


HAND_BUILT = {
    "escalation-house-half": (_escalation_config, 2, 128),
    "condition10-fail": (_condition10_fail_config, 3, 96),
    "house-half-pass": (_house_half_pass_config, 3, 96),
    "below-one": (_below_one_config, 3, 96),
}


def named_example_digests(name: str, monkeypatch) -> dict:
    """Report-byte and exact digests of one check-named-example run."""
    seen = []

    def recording_check_all(*args, **kwargs):
        rep = check_all(*args, **kwargs)
        seen.append(rep)
        return rep

    monkeypatch.setattr(cli, "check_all", recording_check_all)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["check-named-example", name, "--N", "3"])
    assert len(seen) == 1
    return {"exit_code": rc,
            "report_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exact_sha256": report_digest(seen[0])}


def hand_built_digest(key: str) -> str:
    build, N, prec = HAND_BUILT[key]
    return report_digest(check_all(build(), N, prec))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(catalog()))
def test_named_example_report_bytes(name, monkeypatch):
    assert named_example_digests(name, monkeypatch) == _golden()["named"][name]


@pytest.mark.parametrize("key", sorted(HAND_BUILT))
def test_hand_built_exact_reports(key):
    assert hand_built_digest(key) == _golden()["hand_built"][key]


def _write() -> None:
    named = {}
    for name in sorted(catalog()):
        with pytest.MonkeyPatch.context() as mp:
            named[name] = named_example_digests(name, mp)
    golden = {"named": named, "hand_built": {k: hand_built_digest(k) for k in sorted(HAND_BUILT)}}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    _write()
