"""Catalog entries are check-theorem1 configs.

``list-examples`` prints each entry's config.  Run through ``check-theorem1``
as printed, it gives the ``result`` bytes of ``check-named-example``, apart
from the ``example`` key.  The README's config block is ex1's config, and the
sequences of one config share one build of their family.
"""

import json
from pathlib import Path

import pytest

from cfindep import sequences
from cfindep.catalog import catalog, resolve_family
from cfindep.cli import RunConfig, run
from cfindep.reportfmt import dumps_report

README = Path(__file__).resolve().parents[1] / "README.md"


def _result(config: dict) -> tuple[int, str]:
    """Exit code and canonical ``result`` bytes of a run, without ``example``."""
    code, report, _ = run(RunConfig.from_dict(config))
    report["result"].pop("example", None)
    return code, dumps_report(report["result"])


def _printed_configs() -> dict:
    _, report, _ = run(RunConfig("list-examples"))
    examples = json.loads(dumps_report(report))["result"]["examples"]
    return {e["name"]: e["config"] for e in examples}


@pytest.mark.parametrize("name", sorted(catalog()))
def test_printed_config_runs_as_check_named_example(name):
    printed = _printed_configs()[name]
    assert printed == catalog()[name].config()
    named = _result({"task": "check-named-example", "params": {"name": name}})
    assert _result(printed) == named


@pytest.mark.parametrize("name, K, N", [
    ("c2", 2, 4), ("c4", 4, 4), ("c5", 4, 6), ("t2", 3, 4), ("golden-powers", 3, 4),
])
def test_entry_config_at_another_K(name, K, N):
    config = catalog()[name].config(K)
    config["params"]["N"] = N
    named = _result({"task": "check-named-example", "params": {"name": name, "K": K, "N": N}})
    assert _result(config) == named


def test_readme_config_block_is_ex1s_config():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config files"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    assert json.loads(block[:block.index("```")]) == catalog()["ex1"].config()


def test_sqrt_j_sequences_share_one_field():
    _, seqs, tcfg = resolve_family(catalog()["t2"].config(3)["sequences"])
    assert len(seqs) == 3
    assert all(s.field is tcfg.field for s in seqs)


def test_root_family_is_built_once_per_config(monkeypatch):
    calls = []
    build = sequences.polynomial_root_family

    def counted(p, base):
        calls.append((p, base))
        return build(p, base)

    monkeypatch.setattr(sequences, "polynomial_root_family", counted)
    base = {"kind": "doubly-exponential", "d": 3}
    config = {f"r{i}": {"kind": "root-scaled", "poly": [14, -8, 1], "root_index": i, "base": base}
              for i in (1, 2)}
    _, (small, big), _ = resolve_family(config)
    assert len(calls) == 1
    assert small.field is not big.field and small.field.minpoly == big.field.minpoly
