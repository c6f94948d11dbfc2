"""Cold-process benchmark of the ``cfindep`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog|probe|exact --seed N \
        --seconds S --trace 0|1

Every operation runs in a fresh interpreter, one at a time, as a CLI user
runs it: module-level caches start empty and the lazy sympy import is paid
inside the operation.  A run makes round(S / nominal pass seconds) passes
over the workload (at least one).  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it makes one
untraced and one traced pass and prints the per-layer metrics.  Every report
is checked against its known answer and its reference digest.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NOMINAL_PASS_S, WORKLOADS, plan  # noqa: E402

# A run starts no operation after this many seconds and stops a running one
# at it, so it ends within the 180 s a run may take even on a slow commit.
DEADLINE_S = 165


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_op(op: dict, trace: bool, root: str, run_dir: str, timeout: float) -> dict:
    """Spawn one operation process and return its result record."""
    argv = list(op["argv"])
    if op["config"] is not None:
        name = hashlib.sha256(op["id"].encode()).hexdigest()[:16] + ".json"
        path = os.path.join(run_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)
        argv += ["--config", path]
    child_op = dict(op, argv=argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spawn = _clock()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "op.py"), str(spawn), "1" if trace else "0",
         json.dumps(child_op)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": op["id"], "failure": f"stopped at the run deadline after {timeout:.0f} s"}
    except BaseException:  # interrupted: leave no operation process behind
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"id": op["id"], "failure": f"operation process died: {tail[0]}"}
    rec = json.loads(lines[-1])
    rec["id"] = op["id"]
    rec["failure"] = None
    if rec["exit"] != op["expect"]["exit"]:
        rec["failure"] = f"exit {rec['exit']} (expected {op['expect']['exit']}): {rec['error']}"
    return rec


def judge(rec: dict, reference: dict) -> str | None:
    """A wrong-answer reason for a completed operation, or None."""
    if rec["failure"] is not None:
        return None
    if rec["check"] is not None:
        return rec["check"]
    want = reference.get(rec["id"])
    if want is None:
        return "no reference digest"
    if rec["digest"] is None:
        return "no report"
    if rec["digest"] != want:
        return f"report digest {rec['digest'][:12]} differs from reference {want[:12]}"
    return None


def end_to_end(passes: list[list[dict]]) -> tuple[dict, list[str]]:
    done = [r for p in passes for r in p if "op_s" in r]
    op_times = [r["op_s"] for r in done]
    slowest = [max(r["op_s"] for r in p if "op_s" in r) for p in passes]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": statistics.median(sum(r["op_s"] for r in p if "op_s" in r) for p in passes),
        "op_s.p50": statistics.median(op_times),
        "op_s.tail": statistics.median(slowest),
        "peak_rss_mb": max(r["rss_mb"] for r in done),
    }
    # No percentile above the median has ten samples beyond it in a run this
    # short, so the tail is each pass's slowest operation (p100), median over passes.
    notes = [f"{len(op_times)} operation samples in {len(passes)} pass(es); wall_s and "
             f"op_s.tail (p100 of {len(op_times) // len(passes)} per pass) are medians over passes"]
    return metrics, notes


def per_layer(names: list[str], traced: list[dict], untraced_wall: float) -> tuple[dict, dict]:
    funcs: dict[str, dict] = {}
    layers: dict[str, float] = {}
    counters: dict[str, float] = {}
    for rec in traced:
        t = rec.get("trace")
        if t is None:
            continue
        for fn, st in t["functions"].items():
            acc = funcs.setdefault(fn, {"calls": 0, "total_s": 0.0, "distinct": 0})
            for key in acc:
                acc[key] += st.get(key, 0)
        for layer, v in t["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + v
        for key, v in t["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), v)
            else:
                counters[key] = counters.get(key, 0) + v
    traced_wall = sum(r["op_s"] for r in traced if "op_s" in r)
    out = {}
    for name in names:
        if name == "trace.overhead_share":
            out[name] = traced_wall / untraced_wall - 1
            continue
        head, stat = name.rsplit(".", 1)
        if stat == "self_s":
            out[name] = layers.get(head, 0.0)
        elif stat in ("calls", "total_s"):
            out[name] = funcs[head][stat]
        elif stat == "repeat_share":
            f = funcs[head]
            out[name] = 1 - f["distinct"] / f["calls"] if f["calls"] else 0.0
        elif stat == "escalated_share":
            calls = funcs[head]["calls"]
            out[name] = counters[f"{head}.escalated"] / calls if calls else 0.0
        elif stat in ("bits_max", "dim_max"):
            out[name] = counters[name]
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
    return out, {"functions": funcs, "layers": layers, "counters": counters}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass over a few cheap operations (smoke_check.py)")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "cfindep", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("run from the root of a cfindep checkout (src/cfindep and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    run_dir = os.path.join(root, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)

    if args.smoke or args.trace:
        n_passes = 1
    else:
        n_passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    ops = plan(args.workload, args.seed, smoke=args.smoke)
    rng = random.Random(f"{args.workload}:{args.seed}:passes")
    deadline = time.monotonic() + DEADLINE_S

    def one_pass(trace: bool, label: str) -> list[dict]:
        recs = []
        for op in ops:
            left = deadline - time.monotonic()
            if left > 0:
                rec = run_op(op, trace, root, run_dir, left)
            else:
                rec = {"id": op["id"], "failure": "not started: run deadline passed"}
            recs.append(rec)
            shown = f"{rec['op_s']:7.3f} s" if "op_s" in rec else "    --   "
            print(f"{label} {shown}  {op['id']}"
                  + (f"  FAILED: {rec['failure']}" if rec["failure"] else ""), flush=True)
        rng.shuffle(ops)
        return recs

    passes = [one_pass(False, f"pass {i + 1}") for i in range(n_passes)]
    traced = one_pass(True, "traced") if args.trace else []

    wrong = []
    for rec in (r for p in passes for r in p):
        reason = judge(rec, reference)
        if reason:
            wrong.append(f"{rec['id']}: {reason}")
    untraced_digest = {r["id"]: r.get("digest") for r in passes[0]}
    for rec in traced:
        reason = judge(rec, reference)
        if rec["failure"] is None and rec["digest"] != untraced_digest.get(rec["id"]):
            reason = "traced report bytes differ from the untraced run"
        if reason:
            wrong.append(f"{rec['id']} (traced): {reason}")
    all_recs = [r for p in passes for r in p] + traced
    if not all(any("op_s" in r for r in p) for p in passes + [traced] if p):
        print("a pass completed no operation; no metric can be computed", file=sys.stderr)
        return 1
    failed_ids = sorted({r["id"] for r in all_recs if r["failure"]})
    n_failed = sum(1 for r in all_recs if r["failure"]) + len(wrong)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        untraced_wall = sum(r["op_s"] for r in passes[0] if "op_s" in r)
        values, table = per_layer([m["name"] for m in spec["per_layer"]], traced, untraced_wall)
        with open(os.path.join(run_dir, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
        notes = []
    else:
        e2e, notes = end_to_end(passes)
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    attempted = len(all_recs)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations attempted, "
          f"{n_failed} failed, fail_share {n_failed / attempted:.4f}")
    for rid in failed_ids:
        rec = next(r for r in all_recs if r["id"] == rid and r["failure"])
        print(f"  failed: {rid}: {rec['failure']}")
    for line in wrong:
        print(f"  wrong answer: {line}")
    for note in notes:
        print(f"  {note}")
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
