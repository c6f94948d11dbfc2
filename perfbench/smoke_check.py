"""Smoke check of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/smoke_check.py

Runs each workload at a tiny size (``--smoke``: one pass over one or two
cheap operations), untraced and traced, and asserts that every metric named
in BENCHMARK.json is printed with its unit, that every report is correct,
and that the benchmark refuses to run in a directory holding only
BENCHMARK.json and the benchmark's files.  Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(root, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            lines = [line.strip() for line in proc.stdout.splitlines()]
            for name, unit in want.items():
                assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines), (name, unit)
            print(f"ok: {w['name']} trace={trace}: {len(got)} metrics")

    bare = os.path.join(root, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok: refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
