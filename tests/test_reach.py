"""Reachability ledger: every ``def`` under ``src/`` is entered by some run,
or ``reach_ledger.json`` says why it is kept.

A fresh interpreter sets ``sys.setprofile`` before it imports ``cfindep``, so
a function that runs at import time counts as entered.  It then runs a
reduced set of operations (``operations()``: every task once, every catalog
entry at N = 3, one ``check-theorem1`` config per sequence kind, t2 at K = 4,
a cubic field, a wide ``enclose``, a planted ``use: limit`` relation) and
the hand-built golden configs, and prints each ``src/`` function it entered
as ``module:qualname``.  Every ``def`` is found by compiling the sources.

The ledger maps each ``def`` never entered to the reason it is kept, which
starts with one of ``REASONS``.  The test fails when a ``def`` is never
entered and has no entry, and when an entry names a ``def`` that is now
entered or no longer exists.

Regenerate (keeps the reason of every entry still unreached; a new entry
gets an empty reason, which the test refuses until one is written):
    PYTHONPATH=src python tests/test_reach.py --write
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

import pytest

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "cfindep"
LEDGER = HERE / "reach_ledger.json"

# The reasons a def may be kept without a run that enters it.
REASONS = (
    "value type:",  # a dunder of a value type that tests compare, pickle or compute with
    "error path:",  # reached by a malformed-input or failure test
    "pinned by `BENCHMARK.json` per-layer metric (item 13)",
    "item ",  # an open ROADMAP item gives it a run
)

_BASE = {"kind": "doubly-exponential", "d": 3}

# One check-theorem1 sequence per kind; a kind built on a base gets _BASE.
KIND_SEQUENCES = {
    "constant": {"kind": "constant", "value": "7/2"},
    "polynomial": {"kind": "polynomial", "coeffs": [1, 1]},
    "doubly-exponential": {"kind": "doubly-exponential", "d": 2, "c": 2},
    "pow2-geometric": {"kind": "pow2-geometric", "d": 3},
    "hanluc": {"kind": "hanluc", "j": 1},
    "div-by-j": {"kind": "div-by-j", "j": 2, "base": _BASE},
    "harmonic": {"kind": "harmonic", "j": 1, "base": _BASE},
    "prime-pi-power": {"kind": "prime-pi-power", "j": 2, "base": _BASE},
    "divisor-sqrt2": {"kind": "divisor-sqrt2", "base": _BASE},
    "phi-powers": {"kind": "phi-powers", "offset": 1, "base": _BASE},
    # (x - 2)(x^2 - 8x + 14): the factoriser splits off x - 2
    "root-scaled": {"kind": "root-scaled", "poly": [-28, 30, -10, 1], "root_index": 3,
                    "base": _BASE},
    "sqrt-j-scaled": {"kind": "sqrt-j-scaled", "K": 3, "j": 3, "base": _BASE},
}

# A field of degree 3 (D = 3, M = 2, so d = 5): its irreducibility check runs
# the complex-root disks.
_BASE5 = {"kind": "doubly-exponential", "d": 5}
CUBIC = {"task": "check-theorem1", "field": {"minpoly": [-2, 0, 0, 1], "root": ["1", "2"]},
         "sequences": {"a1": _BASE5, "a2": {"kind": "div-by-j", "j": 2, "base": _BASE5}},
         "params": {"N": 3}}

# lemma 1 on two named sequences, a_n = n + 2 and b_n = n + 1
LEMMA1 = {"task": "lemma1", "sequences": {"a": {"kind": "polynomial", "coeffs": [2, 1]},
                                          "b": {"kind": "polynomial", "coeffs": [1, 1]}},
          "params": {"a": "a", "b": "b", "N": 6}}

# xi and its div-by-j copy with j = 1 have one limit: 1*xi - 1*xi = 0.
PLANTED = {"task": "relation",
           "sequences": {"a1": _BASE, "a2": {"kind": "div-by-j", "j": 1, "base": _BASE}},
           "params": {"use": "limit", "N": 3, "precision": 256}}


def operations() -> list[tuple[str, list[str], dict | None, int]]:
    """(label, command line, config or None, expected exit code) of each run;
    None expects a verdict, 0 or 1."""
    from cfindep.catalog import catalog

    ops = [("help", ["--help"], None, 0), ("list-examples", ["list-examples"], None, 0)]
    ops += [(f"catalog {name}", ["check-named-example", name, "--N", "3"], None,
             1 if name == "hanluc" else 0) for name in sorted(catalog())]
    for kind, desc in KIND_SEQUENCES.items():
        cfg = {"task": "check-theorem1", "sequences": {"a1": desc}, "params": {"N": 3}}
        ops.append((f"kind {kind}", ["check-theorem1"], cfg, None))
    t2 = {**catalog()["t2"].config(4), "params": {"N": 3, "precision": 128}}
    ops += [
        ("t2 K=4", ["check-theorem1"], t2, 0),
        ("cubic field", ["check-theorem1"], CUBIC, 0),
        ("convergents", ["convergents", "--example", "c2", "--N", "5"], None, 0),
        ("enclose", ["enclose", "--example", "ex1", "--N", "6", "--precision", "1024"], None, 0),
        ("lemma1", ["lemma1"], LEMMA1, 0),
        ("lemma2", ["lemma2", "--trials", "20"], None, 0),
        ("lemma3", ["lemma3", "--trials", "20"], None, 0),
        ("remark", ["remark", "--N", "50"], None, 0),
        ("relation", ["relation", "ex1", "--N", "3", "--precision", "128"], None, 0),
        ("planted limit relation", ["relation"], PLANTED, 0),
    ]
    return ops


def _defs() -> set[str]:
    """``module:qualname`` of every def under src/cfindep."""
    out = set()
    for path in PACKAGE.rglob("*.py"):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, CodeType)]
            if code.co_flags & 0x2 and not code.co_name.startswith("<"):  # CO_NEWLOCALS: a def
                out.add(f"{module}:{code.co_qualname}")
    return out


def _trace() -> dict:
    """Run ``operations`` and the hand-built golden configs under a profile
    hook; the ``src/`` defs entered and each run's exit code."""
    entered: set[CodeType] = set()

    def hook(frame, event, arg, add=entered.add):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(hook)
    from cfindep import cli
    from cfindep.criteria import check_all
    from test_golden_reports import HAND_BUILT

    exits = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for i, (label, argv, cfg, _) in enumerate(operations()):
            if cfg is not None:
                path = Path(tmp, f"{i}.json")
                path.write_text(json.dumps(cfg))
                argv = argv + ["--config", str(path)]
            exits[label] = cli.main(argv)
        for build, n, prec in HAND_BUILT.values():
            check_all(build(), n, prec)
    sys.setprofile(None)
    root = str(PACKAGE.parent) + os.sep
    names = set()
    for code in entered:
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            module = ".".join(Path(path[len(root):]).with_suffix("").parts)
            names.add(f"{module.removesuffix('.__init__')}:{code.co_qualname}")
    return {"entered": sorted(names), "exits": exits}


def unreached() -> tuple[set[str], dict]:
    """The defs no run enters, and each run's exit code, from a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, __file__, "--trace"], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    return _defs() - set(traced["entered"]), traced["exits"]


@pytest.fixture(scope="module")
def reach():
    return unreached()


def _ledger() -> dict:
    return json.loads(LEDGER.read_text())


def test_runs_exit_as_expected(reach):
    expected = {label: code for label, _, _, code in operations()}
    assert reach[1].keys() == expected.keys()
    for label, code in reach[1].items():
        assert code == expected[label] or (expected[label] is None and code in (0, 1)), label


def test_every_unreached_def_has_a_ledger_entry(reach):
    assert sorted(reach[0] - set(_ledger())) == []


def test_no_stale_ledger_entry(reach):
    # an entry whose def is now entered, or no longer exists
    assert sorted(set(_ledger()) - reach[0]) == []


def test_every_ledger_entry_has_a_reason():
    assert [key for key, why in _ledger().items() if not why.startswith(REASONS)] == []


def _write() -> None:
    old = _ledger() if LEDGER.exists() else {}
    keys = sorted(unreached()[0])
    LEDGER.write_text(json.dumps({k: old.get(k, "") for k in keys}, indent=1) + "\n")
    for key in keys:
        if not old.get(key, "").startswith(REASONS):
            print(f"needs a reason: {key}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--trace"]:
        json.dump(_trace(), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        _write()
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_reach.py --write")
