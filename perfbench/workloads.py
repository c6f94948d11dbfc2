"""Operation lists of the three benchmark workloads.

An operation is one ``cfindep`` command line, optionally with a JSON run
config, plus the known answer its report must give.  ``plan(workload, seed)``
turns a seed into the workload's operations: the seed fixes the order, the
lemma-suite seeds and the planted relation coefficients.  Seeded inputs come
from a pool of ``VARIANTS`` choices so that every report has a reference
digest in ``reference.json``.
"""

from __future__ import annotations

import random
from math import gcd

VARIANTS = 16

CATALOG = ("ex1", "ex2", "ex3", "c2", "c3", "c4", "c5", "t2", "golden-powers", "hanluc")

# Constant quotient c gives [0; c, c, ...] = (k*sqrt(s) - c)/2 where
# c^2 + 4 = s*k^2, so two such values with the same s satisfy
# 2*k_b*x_a - 2*k_a*x_b + (k_b*c_a - k_a*c_b) = 0.  Each entry is
# (c_a, k_a, c_b, k_b).
_PLANTED = (
    (2, 2, 14, 10), (2, 2, 82, 58), (14, 10, 82, 58),
    (4, 2, 11, 5), (4, 2, 29, 13), (4, 2, 76, 34), (4, 2, 199, 89),
    (11, 5, 29, 13), (11, 5, 76, 34), (11, 5, 199, 89), (29, 13, 76, 34),
    (29, 13, 199, 89), (76, 34, 199, 89),
    (3, 1, 36, 10), (6, 2, 234, 74), (5, 1, 140, 26),
)
assert len(_PLANTED) == VARIANTS

# Nominal seconds of one pass at the reference commit.  A run makes
# round(seconds / nominal) passes (at least one), so the number of passes
# depends only on the arguments and is the same for every commit compared.
NOMINAL_PASS_S = {"catalog": 35.0, "probe": 29.0, "exact": 9.0}

WORKLOADS = tuple(NOMINAL_PASS_S)

# Operations of the reduced run used by smoke_check.py.
SMOKE = {
    "catalog": ("check-named-example c2",),
    "probe": ("relation c3 --N 6 --precision 2048", "relation planted"),
    "exact": ("lemma2", "convergents --example c4 --N 6"),
}


def _op(args: str, expect: dict, config: dict | None = None, op_id: str | None = None) -> dict:
    return {"id": op_id or args, "argv": args.split(), "config": config, "expect": expect}


def _catalog_ops() -> list[dict]:
    return [
        _op(f"check-named-example {name}",
            {"kind": "overall", "overall": "fail" if name == "hanluc" else "pass",
             "exit": 1 if name == "hanluc" else 0})
        for name in CATALOG
    ]


def _normalize(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    coeffs = [c // g for c in coeffs]
    return coeffs if next(c for c in coeffs if c) > 0 else [-c for c in coeffs]


def planted_op(variant: int) -> dict:
    ca, ka, cb, kb = _PLANTED[variant]
    config = {
        "task": "relation",
        "sequences": {"xa": {"kind": "constant", "value": str(ca)},
                      "xb": {"kind": "constant", "value": str(cb)}},
        "params": {"values": ["xa", "xb"], "use": "limit", "N": 128, "precision": 256,
                   "height": 1000, "expand_field": False},
    }
    coeffs = _normalize([2 * kb, -2 * ka, kb * ca - ka * cb])
    return _op("relation", {"kind": "planted", "coefficients": coeffs, "exit": 0},
               config, f"relation planted c={ca},{cb}")


def _probe_ops(rng: random.Random) -> list[dict]:
    ops = [
        _op("enclose --example ex1 --N 6 --precision 1024", {"kind": "enclose", "exit": 0}),
        _op("enclose --example hanluc --N 6 --precision 2048", {"kind": "enclose", "exit": 0}),
        _op("enclose --example golden-powers --N 5 --precision 1024", {"kind": "enclose", "exit": 0}),
    ]
    for example, prec in (("ex1", 2048), ("ex1", 4096), ("hanluc", 2048), ("c3", 2048),
                          ("t2", 2048), ("golden-powers", 1024)):
        ops.append(_op(f"relation {example} --N 6 --precision {prec}",
                       {"kind": "relation_none", "exit": 0}))
    ops += [planted_op(v) for v in rng.sample(range(VARIANTS), 3)]
    return ops


def lemma_op(task: str, variant: int) -> dict:
    return _op(f"{task} --trials 1000 --seed {1000 + variant}",
               {"kind": "suite", "trials": 1000, "exit": 0})


def _exact_ops(rng: random.Random) -> list[dict]:
    return [
        _op("remark --N 2000", {"kind": "status", "status": "pass", "exit": 0}),
        lemma_op("lemma2", rng.randrange(VARIANTS)),
        lemma_op("lemma3", rng.randrange(VARIANTS)),
        _op("lemma1 --N 200", {"kind": "status", "status": "ok", "exit": 0}),
        _op("convergents --example c4 --N 6", {"kind": "convergents", "exit": 0}),
        _op("convergents --example golden-powers --N 6", {"kind": "convergents", "exit": 0}),
        # default N=10: fails today in fraction_str (int-to-str digit limit)
        _op("convergents --example ex1", {"kind": "convergents", "exit": 0}),
    ]


def plan(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's operations for one seed, in the order of the first pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        ops = _catalog_ops()
    elif workload == "probe":
        ops = _probe_ops(rng)
    elif workload == "exact":
        ops = _exact_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        ops = [next(op for op in ops if op["id"].startswith(p)) for p in SMOKE[workload]]
    rng.shuffle(ops)
    return ops


def all_reference_ops() -> list[dict]:
    """Every operation any seed can produce, each once."""
    rng = random.Random(0)
    ops = _catalog_ops() + _probe_ops(rng) + _exact_ops(rng)
    ops = [op for op in ops if not op["id"].startswith(("relation planted", "lemma2 ", "lemma3 "))]
    ops += [planted_op(v) for v in range(VARIANTS)]
    ops += [lemma_op(t, v) for t in ("lemma2", "lemma3") for v in range(VARIANTS)]
    return ops
