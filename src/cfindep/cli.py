"""Command-line front end.

Tasks are driven by a declarative JSON config (exact rationals as "num/den"
strings) and/or flags; flags win.  Reports are emitted as canonical JSON
(byte-identical across runs for a fixed config and seed) or as plain text.

Exit codes: 0 task completed with pass/found/neutral result; 1 a fail
verdict; 2 usage or config error; 3 precision exhaustion.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from itertools import tee

from . import __version__
from .bigreal.interval import MIN_PRECISION, singleton
from .catalog import build_config, catalog, list_named_examples, resolve_family
from .cfcore import (
    TAIL_BOUND_KIND,
    determinant_value,
    enclose_value,
    run_recurrence,
    scalar_enclosure,
    scalar_is_zero,
)
from .criteria import HYPOTHESES, HypothesisReport, check_all
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
from .numfield import FieldElement
from .relation import find_relation, find_relation_over_field
from .reportfmt import dumps_report, fraction_str, interval_payload, scalar_payload
from .sequences import CFSpec, parse_int, parse_rational, spec as make_spec

__all__ = ["main", "RunConfig", "run"]

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
        if not isinstance(d["task"], str) or d["task"] not in TASKS:
            raise ValueError(f"unknown task {d['task']!r}")
        for key in ("field", "sequences", "params", "output"):
            if key in d and not isinstance(d[key], dict) and (key, d[key]) != ("field", None):
                raise ValueError(f"config {key} must be an object, got {d[key]!r}")
        output = d.get("output", {})
        if output.get("format", "json") not in ("json", "text"):
            raise ValueError(f"output.format must be 'json' or 'text', got {output['format']!r}")
        if not isinstance(output.get("path", ""), str):
            raise ValueError(f"output.path must be a string, got {output['path']!r}")
        return cls(d["task"], d.get("field"), d.get("sequences"), d.get("params"), output)


# ---------------------------------------------------------------------------
# task runners: each returns (status, exit_code, result_dict, text_lines)
# ---------------------------------------------------------------------------

def _hypothesis_result(rep: HypothesisReport, head: str, **extra) -> tuple[str, int, dict, list[str]]:
    """A check's status (its overall verdict), exit code, result and text lines."""
    result = {
        **extra,
        "overall": rep.overall,
        "d": rep.d,
        "gamma": fraction_str(rep.gamma),
        "condition5_mode_used": rep.mode_used,
        "semantics": "pass verdicts on liminf/limsup conditions are prefix-consistent only",
        "conditions": [
            {
                "name": c.name,
                "inequality": HYPOTHESES[c.name].statement,
                "verdict": c.verdict,
                "verified_up_to": c.verified_up_to,
                "failing_index": list(c.failing_index) if c.failing_index else None,
                "margins": [interval_payload(m) for m in c.margin_series],
                "notes": c.notes,
            }
            for c in rep.conditions
        ],
    }
    lines = [head] + [f"  {c.name}: {c.verdict}" for c in rep.conditions]
    return rep.overall, int(rep.overall == "fail"), result, lines


def _integer(minimum: int | None = None) -> tuple:
    return (lambda value, key, cfg: parse_int(value, key, minimum),
            "an integer" if minimum is None else f"an integer >= {minimum}")


def _checked(ok, text: str) -> tuple:
    """A parser that passes on each value ``ok(value, cfg)`` accepts, and its description."""
    def parse(value, key, cfg):
        if not ok(value, cfg):
            raise ValueError(f"{key} must be {text}, got {value!r}")
        return value
    return parse, text


def _is_sequence(value, cfg: RunConfig) -> bool:
    return isinstance(value, str) and value in cfg.sequences


_CATALOG_NAME = _checked(lambda v, cfg: isinstance(v, str) and v in catalog(), "a catalog name")
_SEQUENCE_NAME = _checked(_is_sequence, "a configured sequence name")
_SEQUENCE_NAMES = _checked(
    lambda v, cfg: isinstance(v, list) and v != [] and all(_is_sequence(s, cfg) for s in v),
    "a nonempty list of configured sequence names")

# Every task parameter: its parser (value, key, cfg) -> parsed value, a
# description, and the type its --flag's value is converted with (None:
# config only).
_PARAMS = {
    "N": (*_integer(1), int),
    "precision": (*_integer(MIN_PRECISION), int),
    "height": (*_integer(1), int),
    "gamma": (lambda value, key, cfg: parse_rational(value), "a rational", str),
    "seed": (*_integer(), int),
    "trials": (*_integer(1), int),
    "example": (*_CATALOG_NAME, str),
    "sequence": (*_SEQUENCE_NAME, str),
    "j": (*_integer(1), int),
    "name": (*_CATALOG_NAME, None),
    "K": (*_integer(1), None),
    "order": (*_SEQUENCE_NAMES, None),
    "values": (*_SEQUENCE_NAMES, None),
    "a": (*_SEQUENCE_NAME, None),
    "b": (*_SEQUENCE_NAME, None),
    "mode": (*_checked(lambda v, cfg: v in ("auto", "real-part-sign", "house-half"),
                       "'auto', 'real-part-sign' or 'house-half'"), None),
    "use": (*_checked(lambda v, cfg: v in ("truncation", "limit"), "'truncation' or 'limit'"),
            None),
    "expand_field": (*_checked(lambda v, cfg: isinstance(v, bool), "true or false"), None),
}


def _parse_params(cfg: RunConfig, defaults: dict) -> dict:
    """The parameters a task takes: each present one parsed, each missing one
    its default (None: the runner works it out; ...: required)."""
    parsed = {}
    for key, value in defaults.items():
        if key in cfg.params:
            value = _PARAMS[key][0](cfg.params[key], key, cfg)
        elif value is ...:
            raise ValueError(f"{cfg.task} needs params.{key}")
        parsed[key] = value
    return parsed


def _task_check_theorem1(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    tcfg = resolve_family(cfg.sequences, p["order"], cfg.field, p["gamma"], p["mode"])[2]
    rep = check_all(tcfg, p["N"], p["precision"])
    return _hypothesis_result(rep, f"overall: {rep.overall} (mode {rep.mode_used}, d={rep.d})")


def _task_check_named_example(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    name, defaults = p["name"], catalog()[p["name"]].defaults
    tcfg = build_config(name, gamma=p["gamma"], K=p["K"])
    N = p["N"] or defaults["N"]
    rep = check_all(tcfg, N, p["precision"] or defaults["precision"])
    return _hypothesis_result(rep, f"{name}: overall {rep.overall} (mode {rep.mode_used}, d={rep.d}, N={N})",
                              example=name)


def _single_sequence(cfg: RunConfig, p: dict) -> CFSpec:
    if p["example"] is not None:
        tcfg = build_config(p["example"])
        if p["j"] > tcfg.M:
            raise ValueError("j out of range")
        return tcfg.sequences[p["j"] - 1]
    name = p["sequence"]
    if name is None and len(cfg.sequences) == 1:
        name = next(iter(cfg.sequences))
    if name is None:
        raise ValueError("params.sequence must name a configured sequence")
    return resolve_family(cfg.sequences, [name])[1][0]


def _task_convergents(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    seq = _single_sequence(cfg, p)
    # lazily: quotient n and order n are computed only after row n - 1 is written,
    # so a row that cannot be written stops the work there
    quotients, feed = tee(map(seq.quotient, range(1, p["N"] + 1)))
    rows = []
    lines = []
    for n, (a, st) in enumerate(zip(quotients, run_recurrence(feed)), start=1):
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
    return abs(x.numerator).bit_length()


def _task_enclose(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    prec = p["precision"]
    value = enclose_value(_single_sequence(cfg, p), p["N"], prec)
    result = {
        "order": p["N"],
        "tail_bound_kind": TAIL_BOUND_KIND,
        "value": interval_payload(value, sig=max(24, prec // 3)),
    }
    return "ok", 0, result, [f"value = {result['value']['value']} +/- {result['value']['plus_minus']}"]


def _task_lemma1(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    if (p["a"] is None) != (p["b"] is None):
        raise ValueError("lemma1 needs both params.a and params.b, or neither")
    if p["a"] is None:
        a = make_spec("constant", value=Fraction(2))
        b = make_spec("constant", value=Fraction(1))
    else:
        a, b = resolve_family(cfg.sequences, [p["a"], p["b"]])[1]
    N = p["N"]
    tr = lemma1_trace(a, b, N, p["precision"])
    result = {
        "indices": list(range(1, N + 1)),
        "ratios": [interval_payload(r) for r in tr.ratios],
        "hypothesis_margin": [interval_payload(m) for m in tr.liminf_margin],
        "ratios_exact": [fraction_str(r) for r in tr.ratios_exact] if tr.ratios_exact else None,
    }
    last = tr.ratios[-1]
    return "ok", 0, result, [f"ratio at N={N}: {interval_payload(last)['value']}"]


def _lemma_suite(p: dict, suite_fn) -> tuple[str, int, dict, list[str]]:
    res = suite_fn(trials=p["trials"], seed=p["seed"])
    status = "pass" if res.all_passed else "fail"
    result = {
        "trials": res.trials,
        "passed": res.passed,
        "seed": res.seed,
        "failures": res.failures,
        "worst_margin": fraction_str(res.worst),
    }
    return status, 0 if res.all_passed else 1, result, [f"{res.passed}/{res.trials} trials passed (seed {res.seed})"]


def _task_remark(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    N = p["N"]
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


def _task_relation(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    prec, n_trunc = p["precision"], p["N"]
    if p["example"] is not None:
        tcfg = build_config(p["example"])
        fld, seq_list = tcfg.field, tcfg.sequences
    else:
        fld, seq_list, _ = resolve_family(cfg.sequences, p["values"], cfg.field)
    expand = fld is not None if p["expand_field"] is None else p["expand_field"]
    values = []
    for s in seq_list:
        if p["use"] == "limit":
            values.append(enclose_value(s, n_trunc, prec + 48))
        else:
            st = list(run_recurrence([s.quotient(k) for k in range(1, n_trunc + 1)]))[-1]
            values.append(scalar_enclosure(st.p_cur / st.q_cur, prec + 48))
    if expand and fld is not None:
        res = find_relation_over_field(values, fld, p["height"], prec)
    else:
        res = find_relation(values + [singleton(1)], p["height"], prec)
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


def _task_list_examples(cfg: RunConfig, p: dict) -> tuple[str, int, dict, list[str]]:
    items = list_named_examples()
    lines = [f"{it['name']}: D={it['D']} M={it['M']} d={it['d']} - {it['description']}"
             for it in items]
    return "ok", 0, {"examples": items}, lines


# Every task: its runner (cfg, parsed parameters) -> (status, exit code,
# result, text lines), and the parameters it takes with their defaults.
TASKS = {
    "convergents": (_task_convergents, {"example": None, "j": 1, "sequence": None, "N": 10}),
    "enclose": (_task_enclose, {"example": None, "j": 1, "sequence": None, "N": 10,
                                "precision": 128}),
    "check-theorem1": (_task_check_theorem1, {"order": None, "gamma": Fraction(1, 2),
                                              "mode": "auto", "N": 6, "precision": 128}),
    "check-named-example": (_task_check_named_example, {"name": ..., "gamma": None, "K": None,
                                                        "N": None, "precision": None}),
    "lemma1": (_task_lemma1, {"a": None, "b": None, "N": 20, "precision": 128}),
    "lemma2": (lambda cfg, p: _lemma_suite(p, run_lemma2_suite), {"trials": 1000, "seed": 0}),
    "lemma3": (lambda cfg, p: _lemma_suite(p, run_lemma3_suite), {"trials": 1000, "seed": 0}),
    "remark": (_task_remark, {"N": 2000}),
    "relation": (_task_relation, {"example": None, "values": None, "use": "truncation",
                                  "expand_field": None, "N": 6, "precision": 256,
                                  "height": 100}),
    "list-examples": (_task_list_examples, {}),
}


def run(cfg: RunConfig, timings: bool = False) -> tuple[int, dict, list[str]]:
    """Execute a task; returns (exit_code, report_dict, text_lines)."""
    t0 = time.monotonic()
    runner, defaults = TASKS[cfg.task]
    status, code, result, lines = runner(cfg, _parse_params(cfg, defaults))
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


# The flags outside the parameter table, each with its value's type (None:
# takes no value), the value's name and its help line.
_OPTIONS = {
    "config": (str, "PATH", "path to a JSON run config"),
    "out": (str, "PATH", "write the report to this path"),
    "format": (str, "json|text", "report format (default json)"),
    "timings": (None, "", "include wall-clock timings (breaks byte determinism)"),
}
_FLAGS = {**{key: (flag, "VALUE", text) for key, (_, text, flag) in _PARAMS.items() if flag},
          **_OPTIONS}
_USAGE = "usage: cfindep TASK [NAME] [--KEY VALUE | --KEY=VALUE ...]  (cfindep --help lists them)"


def _help() -> str:
    rows = [(f"--{key} {metavar}".rstrip(), text) for key, (_, metavar, text) in _FLAGS.items()]
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(flag) for flag, _ in rows)
    return "\n".join([
        _USAGE, "",
        "exact continued fractions: hypothesis checking, lemma verification, "
        "and integer-relation probes", "",
        "TASK is one of " + ", ".join(TASKS) + ".",
        "NAME is a named example (check-named-example, relation).", "",
        "Each flag is spelled out in full, as --KEY VALUE or --KEY=VALUE:",
        *(f"  {flag:<{width}}  {text}" for flag, text in rows),
    ]) + "\n"


def _read_argv(argv: list[str]) -> tuple[str, str | None, dict]:
    """(task, NAME or None, flag values) of a command line; a malformed one
    raises ValueError."""
    words, flags = [], {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, eq, value = token.partition("=")
        key = flag[2:]
        if not flag.startswith("--") or key not in _FLAGS or (eq and _FLAGS[key][0] is None):
            raise ValueError(f"unrecognized argument {token!r}")
        kind = _FLAGS[key][0]
        if kind is None:
            flags[key] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag} expects a value")
        try:
            flags[key] = kind(value)
        except ValueError:  # only int refuses a string
            raise ValueError(f"{flag} expects an integer, got {value!r}") from None
    if not words:
        raise ValueError("a TASK is required")
    if words[0] not in TASKS:
        raise ValueError(f"unknown task {words[0]!r}; TASK is one of {', '.join(TASKS)}")
    if len(words) > 2:
        raise ValueError(f"unexpected argument {words[2]!r}")
    if flags.get("format", "json") not in ("json", "text"):
        raise ValueError(f"--format must be json or text, got {flags['format']!r}")
    return words[0], words[1] if len(words) == 2 else None, flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help())
        return 0
    try:
        task, name, flags = _read_argv(argv)
    except ValueError as e:
        print(_USAGE, f"error: {e}", sep="\n", file=sys.stderr)
        return 2
    try:
        if "config" in flags:
            with open(flags["config"], "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_dict(json.load(fh))
            if cfg.task != task:
                raise ValueError(f"config task {cfg.task!r} does not match {task!r}")
        else:
            cfg = RunConfig(task=task)
        cfg.params.update((key, flags[key]) for key in _PARAMS if key in flags)
        if name:
            cfg.params.setdefault("name", name)
            if task == "relation":
                cfg.params.setdefault("example", name)
        if "out" in flags:
            cfg.output["path"] = flags["out"]
        if "format" in flags:
            cfg.output["format"] = flags["format"]
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        code, report, lines = run(cfg, timings=flags.get("timings", False))
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
    if "path" in cfg.output:
        try:
            with open(cfg.output["path"], "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
