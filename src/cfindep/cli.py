"""Command-line front end.

Tasks are driven by a declarative JSON config (exact rationals as "num/den"
strings) and/or flags; flags win.  Reports are emitted as canonical JSON
(byte-identical across runs for a fixed config and seed) or as plain text.

Exit codes: 0 task completed with pass/found/neutral result; 1 a fail
verdict; 2 usage or config error; 3 precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .bigreal.dyadic import rational_to_dyadic
from .bigreal.interval import MIN_PRECISION, DyadicInterval, iv_div, singleton
from .bigreal.poly import IntPoly
from .catalog import build_config, catalog, list_named_examples
from .cfcore import (
    advance,
    determinant_value,
    enclose_value,
    initial_state,
    run_recurrence,
    scalar_enclosure,
    scalar_is_zero,
)
from .criteria import HypothesisReport, Thm1Config, check_all
from .errors import (
    CFIndepError,
    IndeterminateAtPrecision,
    PrecisionInsufficient,
    PrecisionTooLow,
    UnknownFamily,
)
from .lemmas import (
    lemma1_trace,
    remark_counterexample,
    run_lemma2_suite,
    run_lemma3_suite,
)
from .numfield import FieldElement, NumberField, field_new
from .relation import find_relation, find_relation_over_field
from .reportfmt import dumps_report, fraction_str, interval_payload, scalar_payload
from .sequences import CFSpec, parse_int, parse_rational, parse_sequence, spec as make_spec

__all__ = ["main", "RunConfig", "run"]

TASKS = (
    "convergents",
    "enclose",
    "check-theorem1",
    "check-named-example",
    "lemma1",
    "lemma2",
    "lemma3",
    "remark",
    "relation",
    "list-examples",
)


class RunConfig:
    """Declarative description of one CLI task."""

    def __init__(self, task: str, field: dict | None = None, sequences: dict | None = None,
                 params: dict | None = None, output: dict | None = None):
        self.task, self.field = task, field
        self.sequences = {} if sequences is None else sequences
        self.params = {} if params is None else params
        self.output = {} if output is None else output

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is RunConfig else NotImplemented

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "field": self.field,
            "sequences": self.sequences,
            "params": self.params,
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict) or "task" not in d:
            raise ValueError("config must be an object with a 'task' key")
        task = d["task"]
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        return cls(
            task=task,
            field=d.get("field"),
            sequences=d.get("sequences", {}) or {},
            params=d.get("params", {}) or {},
            output=d.get("output", {}) or {},
        )


def _field_from_dict(d: dict) -> NumberField:
    coeffs = d.get("minpoly")
    root = d.get("root")
    if not coeffs or not isinstance(coeffs, list):
        raise ValueError("field.minpoly must be a nonempty coefficient list")
    if not root or len(root) != 2:
        raise ValueError("field.root must be [lo, hi] exact rationals")
    lo = parse_rational(root[0])
    hi = parse_rational(root[1])
    iv = DyadicInterval(
        rational_to_dyadic(lo.numerator, lo.denominator, 64, up=False),
        rational_to_dyadic(hi.numerator, hi.denominator, 64, up=True),
    )
    return field_new(IntPoly(tuple(parse_int(c, "field.minpoly") for c in coeffs)), iv)


# ---------------------------------------------------------------------------
# task runners: each returns (status, exit_code, result_dict, text_lines)
# ---------------------------------------------------------------------------

_INEQUALITIES = {
    "decomposition": "a = (S*b + c)/d with S integral, b/c/d algebraic integers, a >= 1",
    "house-inverse-half": "house(1/a_{n,j}) >= 1/2",
    "real-part-sign": "(-1)^e_{j,sigma} Re(sigma(a_{n,j})) >= "
                      "max(2^((log2 a_{n,1})^gamma), 2^(d^(n^gamma)))^-1",
    "house-growth-bound": "house(b), house(c), house(d) <= "
                          "max(2^((log2 a_{n,j})^gamma), 2^(d^(n^gamma)))",
    "interleaving": "a_{n,1} < max(a_{n,M} 2^((log2 a_{n,M})^gamma), 2^(d^(n^gamma)))",
    "ratio-liminf": "liminf sqrt(n) (a_{n,j}/a_{n,j+1} - 1) > 0",
    "growth-limsup": "limsup a_{n,j}^(1/d^n) = infinity",
}


def _serialize_hypothesis_report(rep: HypothesisReport) -> dict:
    return {
        "overall": rep.overall,
        "d": rep.d,
        "gamma": fraction_str(rep.gamma),
        "condition5_mode_used": rep.mode_used,
        "semantics": "pass verdicts on liminf/limsup conditions are prefix-consistent only",
        "conditions": [
            {
                "name": c.name,
                "inequality": _INEQUALITIES.get(c.name),
                "verdict": c.verdict,
                "verified_up_to": c.verified_up_to,
                "failing_index": list(c.failing_index) if c.failing_index else None,
                "margins": [interval_payload(m) for m in c.margin_series],
                "notes": c.notes,
            }
            for c in rep.conditions
        ],
    }


def _hypothesis_exit(rep: HypothesisReport) -> tuple[str, int]:
    if rep.overall == "pass":
        return "pass", 0
    if rep.overall == "fail":
        return "fail", 1
    return "indeterminate", 0


def _resolve_sequences(cfg: RunConfig) -> dict[str, CFSpec]:
    return {name: parse_sequence(d) for name, d in cfg.sequences.items()}


_PARAM_MINIMUM = {"N": 1, "precision": MIN_PRECISION, "trials": 1}


def _int_param(cfg: RunConfig, key: str, default: int | None) -> int | None:
    """Integer task parameter from the config or a flag, at least its minimum
    if it has one; the default when absent.  A present null is refused."""
    if key not in cfg.params:
        return default
    return parse_int(cfg.params[key], key, _PARAM_MINIMUM.get(key))


def _task_check_theorem1(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    fld = _field_from_dict(cfg.field) if cfg.field else None
    seqs = _resolve_sequences(cfg)
    order = cfg.params.get("order") or sorted(seqs)
    try:
        ordered = [seqs[name] for name in order]
    except KeyError as e:
        raise ValueError(f"order references unknown sequence {e}")
    if fld is None:
        # infer the ambient field (hence the degree D) from the sequences
        fld = next((s.field for s in ordered if s.field is not None), None)
    gamma = parse_rational(cfg.params.get("gamma", "1/2"))
    tcfg = Thm1Config(
        M=len(ordered), sequences=ordered, gamma=gamma, field=fld,
        condition5_mode=cfg.params.get("mode", "auto"),
        name=cfg.params.get("name"),
    )
    N = _int_param(cfg, "N", 6)
    prec = _int_param(cfg, "precision", 128)
    rep = check_all(tcfg, N, prec)
    status, code = _hypothesis_exit(rep)
    result = _serialize_hypothesis_report(rep)
    lines = [f"overall: {rep.overall} (mode {rep.mode_used}, d={rep.d})"]
    lines += [f"  {c.name}: {c.verdict}" for c in rep.conditions]
    return status, code, result, lines


def _task_check_named_example(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    name = cfg.params.get("name")
    if not name:
        raise ValueError("check-named-example needs params.name")
    entry = catalog().get(name)
    if entry is None:
        raise ValueError(f"unknown named example {name!r}")
    gamma = cfg.params.get("gamma")
    tcfg = build_config(name, gamma=parse_rational(gamma) if gamma else None,
                        K=_int_param(cfg, "K", None))
    N = _int_param(cfg, "N", entry.defaults.get("N", 6))
    prec = _int_param(cfg, "precision", entry.defaults.get("precision", 128))
    rep = check_all(tcfg, N, prec)
    status, code = _hypothesis_exit(rep)
    result = _serialize_hypothesis_report(rep)
    result["example"] = name
    lines = [f"{name}: overall {rep.overall} (mode {rep.mode_used}, d={rep.d}, N={N})"]
    lines += [f"  {c.name}: {c.verdict}" for c in rep.conditions]
    return status, code, result, lines


def _single_sequence(cfg: RunConfig) -> CFSpec:
    ex = cfg.params.get("example")
    if ex:
        tcfg = build_config(ex)
        j = _int_param(cfg, "j", 1)
        if not 1 <= j <= tcfg.M:
            raise ValueError("j out of range")
        return tcfg.sequences[j - 1]
    seqs = _resolve_sequences(cfg)
    name = cfg.params.get("sequence")
    if name is None and len(seqs) == 1:
        name = next(iter(seqs))
    if name not in seqs:
        raise ValueError("params.sequence must name a configured sequence")
    return seqs[name]


def _task_convergents(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    seq = _single_sequence(cfg)
    N = _int_param(cfg, "N", 10)
    st = initial_state(0)
    rows = []
    lines = []
    for n in range(1, N + 1):
        a = seq.quotient(n, 128)
        st = advance(st, a)
        det = determinant_value(st)
        det_str = "+1" if scalar_is_zero(det - 1) else ("-1" if scalar_is_zero(det + 1) else "?")
        rows.append({
            "n": n,
            "a": scalar_payload(a),
            "p": scalar_payload(st.p_cur),
            "q": scalar_payload(st.q_cur),
            "determinant": det_str,
        })
        lines.append(f"n={n}: q bits ~ {_scalar_bits(st.q_cur)}")
    return "ok", 0, {"convergents": rows}, lines


def _scalar_bits(x) -> int:
    if isinstance(x, FieldElement):
        return max(abs(c.numerator).bit_length() for c in x.coords)
    if isinstance(x, Fraction):
        return abs(x.numerator).bit_length()
    return 0


def _task_enclose(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    seq = _single_sequence(cfg)
    N = _int_param(cfg, "N", 10)
    prec = _int_param(cfg, "precision", 128)
    enc = enclose_value(seq, N, prec)
    result = {
        "order": enc.order,
        "tail_bound_kind": enc.tail_bound_kind,
        "value": interval_payload(enc.value, sig=max(24, prec // 3)),
    }
    return "ok", 0, result, [f"value = {result['value']['value']} +/- {result['value']['plus_minus']}"]


def _task_lemma1(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    seqs = _resolve_sequences(cfg)
    a_name = cfg.params.get("a")
    b_name = cfg.params.get("b")
    if a_name and b_name:
        a, b = seqs[a_name], seqs[b_name]
    else:
        a = make_spec("constant", value=Fraction(2))
        b = make_spec("constant", value=Fraction(1))
    N = _int_param(cfg, "N", 20)
    prec = _int_param(cfg, "precision", 128)
    tr = lemma1_trace(a, b, N, prec)
    result = {
        "indices": tr.indices,
        "ratios": [interval_payload(r) for r in tr.ratios],
        "hypothesis_margin": [interval_payload(m) for m in tr.liminf_margin],
        "ratios_exact": [fraction_str(r) for r in tr.ratios_exact] if tr.ratios_exact else None,
    }
    last = tr.ratios[-1]
    return "ok", 0, result, [f"ratio at N={N}: {interval_payload(last)['value']}"]


def _task_lemma2(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    return _lemma_suite(cfg, run_lemma2_suite)


def _task_lemma3(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    return _lemma_suite(cfg, run_lemma3_suite)


def _lemma_suite(cfg: RunConfig, suite_fn) -> tuple[str, int, dict, list[str]]:
    trials = _int_param(cfg, "trials", 1000)
    seed = _int_param(cfg, "seed", 0)
    res = suite_fn(trials=trials, seed=seed)
    status = "pass" if res.all_passed else "fail"
    result = {
        "trials": res.trials,
        "passed": res.passed,
        "seed": res.seed,
        "failures": res.failures,
        "worst_margin": fraction_str(res.worst),
    }
    return status, 0 if res.all_passed else 1, result, [f"{res.passed}/{res.trials} trials passed (seed {res.seed})"]


def _task_remark(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    N = _int_param(cfg, "N", 2000)
    rr = remark_counterexample(N)
    below = rr.max_ratio.hi < rr.bound.lo
    result = {
        "N": N,
        "max_ratio": interval_payload(rr.max_ratio),
        "infinite_product_bound": interval_payload(rr.bound),
        "monotone_increasing": rr.monotone,
        "max_below_bound": bool(below),
    }
    status = "pass" if (below and rr.monotone) else "fail"
    return status, 0 if status == "pass" else 1, result, [
        f"max ratio {result['max_ratio']['value']} < bound {result['infinite_product_bound']['value']}: {below}",
        f"monotone increasing: {rr.monotone}",
    ]


def _task_relation(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    prec = _int_param(cfg, "precision", 256)
    height = _int_param(cfg, "height", 100)
    n_trunc = _int_param(cfg, "N", 6)
    use = cfg.params.get("use", "truncation")
    if use not in ("truncation", "limit"):
        raise ValueError(f"relation use must be 'truncation' or 'limit', got {use!r}")
    ex = cfg.params.get("example")
    if ex:
        tcfg = build_config(ex)
        seq_list = tcfg.sequences
        fld = tcfg.field
    else:
        fld = _field_from_dict(cfg.field) if cfg.field else None
        seqs = _resolve_sequences(cfg)
        names = cfg.params.get("values") or sorted(seqs)
        seq_list = [seqs[nm] for nm in names]
    expand = cfg.params.get("expand_field", fld is not None)
    if not isinstance(expand, bool):
        raise ValueError(f"relation expand_field must be true or false, got {expand!r}")
    values = []
    for s in seq_list:
        if use == "limit":
            values.append(enclose_value(s, n_trunc, prec + 48).value)
        else:
            st = run_recurrence([s.quotient(k, prec + 48) for k in range(1, n_trunc + 1)])[-1]
            if isinstance(st.q_cur, DyadicInterval):
                values.append(iv_div(st.p_cur, st.q_cur, prec + 48))
            else:
                values.append(scalar_enclosure(st.p_cur / st.q_cur, prec + 48))
    if expand and fld is not None:
        res = find_relation_over_field(values, fld, height, prec)
    else:
        res = find_relation(values + [singleton(1)], height, prec)
    result = {
        "status": res.status,
        "height": res.height_bound,
        "precision": res.precision,
        "lattice_dim": list(res.lattice_dim),
        "coefficients": res.coefficients,
        "statement": res.statement,
        "residual": interval_payload(res.residual) if res.residual is not None else None,
        "field_coefficients": (
            [[fraction_str(c) for c in k.coords] for k in res.k_coefficients]
            if res.k_coefficients else None
        ),
        "note": "evidence only, not a proof of linear independence",
    }
    return res.status, 0, result, [f"{res.status}; {res.statement}"]


def _task_list_examples(cfg: RunConfig) -> tuple[str, int, dict, list[str]]:
    items = list_named_examples()
    lines = [f"{it['name']}: D={it['D']} M={it['M']} d={it['d']} - {it['description']}"
             for it in items]
    return "ok", 0, {"examples": items}, lines


_RUNNERS = {
    "check-theorem1": _task_check_theorem1,
    "check-named-example": _task_check_named_example,
    "convergents": _task_convergents,
    "enclose": _task_enclose,
    "lemma1": _task_lemma1,
    "lemma2": _task_lemma2,
    "lemma3": _task_lemma3,
    "remark": _task_remark,
    "relation": _task_relation,
    "list-examples": _task_list_examples,
}


def run(cfg: RunConfig, timings: bool = False) -> tuple[int, dict, list[str]]:
    """Execute a task; returns (exit_code, report_dict, text_lines)."""
    t0 = time.monotonic()
    status, code, result, lines = _RUNNERS[cfg.task](cfg)
    report = {
        "tool": {"name": "cfindep", "version": __version__},
        "task": cfg.task,
        "config": cfg.to_dict(),
        "status": status,
        "exit_code": code,
        "result": result,
        "timings": {"wall_seconds": round(time.monotonic() - t0, 6)} if timings else None,
    }
    return code, report, lines


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfindep",
        description="exact continued fractions: hypothesis checking, lemma "
                    "verification, and integer-relation probes",
    )
    ap.add_argument("task", choices=TASKS)
    ap.add_argument("name", nargs="?", help="named example (check-named-example/relation)")
    ap.add_argument("--config", help="path to a JSON run config")
    ap.add_argument("--N", type=int)
    ap.add_argument("--precision", type=int)
    ap.add_argument("--height", type=int)
    ap.add_argument("--gamma", help="exact rational like 1/2")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trials", type=int)
    ap.add_argument("--example")
    ap.add_argument("--sequence")
    ap.add_argument("--j", type=int)
    ap.add_argument("--out", help="write the report to this path")
    ap.add_argument("--format", choices=("json", "text"))
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte determinism)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_dict(json.load(fh))
            if cfg.task != args.task:
                raise ValueError(f"config task {cfg.task!r} does not match {args.task!r}")
        else:
            cfg = RunConfig(task=args.task)
        for key, val in (
            ("N", args.N), ("precision", args.precision), ("height", args.height),
            ("gamma", args.gamma), ("seed", args.seed), ("trials", args.trials),
            ("example", args.example), ("sequence", args.sequence), ("j", args.j),
        ):
            if val is not None:
                cfg.params[key] = val
        if args.name:
            cfg.params.setdefault("name", args.name)
            if args.task == "relation":
                cfg.params.setdefault("example", args.name)
        if args.out:
            cfg.output["path"] = args.out
        if args.format:
            cfg.output["format"] = args.format
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        code, report, lines = run(cfg, timings=args.timings)
    except (PrecisionInsufficient, IndeterminateAtPrecision, PrecisionTooLow) as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, UnknownFamily) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CFIndepError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    fmt = cfg.output.get("format", "json")
    if fmt == "text":
        payload = "\n".join([f"task: {cfg.task}", f"status: {report['status']}"] + lines) + "\n"
    else:
        payload = dumps_report(report)
    path = cfg.output.get("path")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
