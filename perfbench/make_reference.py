"""Rewrite reference.json: the sha256 of every operation's report bytes.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Runs every operation any seed can produce once, untraced, and records the
digest of each report that has the expected exit code and passes its
known-answer check.  Operations that fail are listed and get no digest, so
the benchmark keeps counting them as failed.  Regenerate only when a change
is meant to alter report bytes.
"""

import json
import os
import sys

from run import DEADLINE_S, HERE, run_op
from workloads import all_reference_ops


def main() -> int:
    root = os.getcwd()
    run_dir = os.path.join(root, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)
    reference = {}
    for op in all_reference_ops():
        rec = run_op(op, False, root, run_dir, DEADLINE_S)
        problem = rec["failure"] or rec["check"]
        if problem:
            print(f"no digest: {op['id']}: {problem}")
            continue
        reference[op["id"]] = rec["digest"]
        print(f"{rec['op_s']:7.3f} s  {op['id']}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
