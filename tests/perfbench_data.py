"""Shared loaders for the byte oracles.

``reference()`` reads the digests of ``perfbench/reference.json`` (never
written here), ``workloads()`` loads ``perfbench/workloads.py`` for its
operation lists, and ``stdout_digest`` runs one command line in-process
through ``cli.main`` and returns the sha256 of its stdout.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from cfindep import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def reference() -> dict:
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
