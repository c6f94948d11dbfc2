import json
import re
import subprocess
import sys

import jsonschema
import pytest

from cfindep import cli
from cfindep.cli import RunConfig, main

SCHEMA_PATH = "src/cfindep/schemas/report.schema.json"


def _run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "cfindep.cli", *args],
                          capture_output=True, text=True, **kw)


def _schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def test_config_roundtrip():
    cfg = RunConfig(
        task="check-theorem1",
        field={"minpoly": [14, -8, 1], "root": ["1/1", "3/1"]},
        sequences={"a": {"kind": "doubly-exponential", "d": 3}},
        params={"N": 4, "gamma": "1/2"},
        output={"format": "json"},
    )
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_bad_task():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"task": "no-such"})
    with pytest.raises(ValueError):
        RunConfig.from_dict([])


def test_named_example_pass_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check-named-example", "ex1", "--N", "3", "--precision", "128",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["result"]["overall"] == "pass"
    jsonschema.validate(report, _schema())


def test_failing_example_exit_one(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check-named-example", "hanluc", "--N", "2", "--precision", "128",
               "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    inter = next(c for c in report["result"]["conditions"] if c["name"] == "interleaving")
    assert inter["verdict"] == "fail" and inter["failing_index"] == [1]
    jsonschema.validate(report, _schema())


@pytest.mark.parametrize("seq", [{"kind": "polynomial", "coeffs": ["-1", "1"]},
                                 {"kind": "constant", "value": "-2"}])
def test_nonpositive_quotient_exit_one(tmp_path, seq):
    # a_1 = 0 or a_n = -2: a decomposition failure, not a crash or config error
    cfgfile = tmp_path / "neg.json"
    cfgfile.write_text(json.dumps({"task": "check-theorem1", "sequences": {"a": seq},
                                   "params": {"N": 3}}))
    out = tmp_path / "r.json"
    assert main(["check-theorem1", "--config", str(cfgfile), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["result"]["overall"] == "fail"
    dec = report["result"]["conditions"][0]
    assert dec["name"] == "decomposition" and dec["failing_index"] == [1, 1]
    jsonschema.validate(report, _schema())


def test_malformed_config_exit_two(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({
        "task": "check-theorem1",
        "field": {"minpoly": [], "root": ["1/1", "2/1"]},
        "sequences": {},
        "params": {},
    }))
    rc = main(["check-theorem1", "--config", str(cfgfile)])
    assert rc == 2
    rc2 = main(["check-theorem1", "--config", str(tmp_path / "missing.json")])
    assert rc2 == 2


def test_out_into_missing_directory_exit_two(tmp_path, capsys):
    # the report is written after the run; a path it cannot open is an error, not a fail verdict
    path = tmp_path / "missing" / "r.json"
    assert main(["remark", "--N", "3", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(path) in captured.err and captured.err.count("\n") == 1


def test_unknown_named_example_exit_two():
    assert main(["check-named-example", "nope"]) == 2


def test_byte_identical_reports(tmp_path):
    # identical config + seed -> identical bytes
    out = tmp_path / "r.json"
    rc = main(["lemma2", "--trials", "50", "--seed", "9", "--out", str(out)])
    assert rc == 0
    first = out.read_bytes()
    rc = main(["lemma2", "--trials", "50", "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == first


def test_lemma1_on_field_valued_sequences(tmp_path):
    # hanluc quotients are exact elements of Q(sqrt 2), not rationals: the
    # trace takes the interval path and reports no exact ratios
    cfg = {"task": "lemma1",
           "sequences": {"big": {"kind": "hanluc", "j": 2, "base": {"kind": "doubly-exponential", "d": 3}},
                         "small": {"kind": "hanluc", "j": 1}},
           "params": {"a": "big", "b": "small", "N": 4, "precision": 128}}
    assert _run_config(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["exit_code"] == 0 and report["result"]["indices"] == [1, 2, 3, 4]
    assert report["result"]["ratios_exact"] is None
    jsonschema.validate(report, _schema())


def test_list_examples_content(tmp_path):
    out = tmp_path / "cat.json"
    rc = main(["list-examples", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    names = {e["name"]: e for e in report["result"]["examples"]}
    assert "ex1" in names
    assert names["ex1"]["D"] == 2 and names["ex1"]["M"] == 2 and names["ex1"]["d"] == 3
    assert "hanluc" in names
    assert names["hanluc"]["field_minpoly"] == [-2, 0, 1]
    assert len(names) >= 8
    jsonschema.validate(report, _schema())


def test_text_format(capsys):
    rc = main(["remark", "--N", "50", "--format", "text"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "monotone increasing: True" in captured.out


def test_config_driven_theorem_check(tmp_path):
    cfg = {
        "task": "check-theorem1",
        "field": {"minpoly": [14, -8, 1], "root": ["5/2", "3/1"]},
        "sequences": {
            "big": {"kind": "root-scaled", "poly": [14, -8, 1], "root_index": 2,
                    "base": {"kind": "doubly-exponential", "d": 3}},
            "small": {"kind": "root-scaled", "poly": [14, -8, 1], "root_index": 1,
                      "base": {"kind": "doubly-exponential", "d": 3}},
        },
        "params": {"order": ["big", "small"], "N": 3, "precision": 128, "gamma": "1/2"},
        "output": {},
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    rc = main(["check-theorem1", "--config", str(f), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["result"]["overall"] == "pass"
    # config echo allows reproducing the run
    assert report["config"]["params"]["N"] == 3


def test_enclose_and_convergents_tasks(tmp_path):
    cfg = {
        "task": "enclose",
        "sequences": {"s": {"kind": "constant", "value": "2/1"}},
        "params": {"sequence": "s", "N": 8, "precision": 96},
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert main(["enclose", "--config", str(f), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["value"]["value"].startswith("0.414213")
    cfg["task"] = "convergents"
    f.write_text(json.dumps(cfg))
    assert main(["convergents", "--config", str(f), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rows = rep["result"]["convergents"]
    assert rows[4]["q"]["exact"] == "70/1"
    assert all(r["determinant"] in ("+1", "-1") for r in rows)


def test_relation_task_planted(tmp_path):
    cfg = {
        "task": "relation",
        "sequences": {
            "golden": {"kind": "constant", "value": "1/1"},
            "var": {"kind": "constant", "value": "1/1"},
        },
        "params": {"values": ["golden", "var"], "N": 110, "precision": 128,
                   "height": 50, "expand_field": False},
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert main(["relation", "--config", str(f), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # identical sequences: c1 - c2 = 0 is found immediately
    assert rep["result"]["status"] == "found"
    assert rep["result"]["coefficients"] == [1, -1, 0]


def test_cli_subprocess_entrypoint():
    proc = _run_cli(["list-examples", "--format", "text"])
    assert proc.returncode == 0
    assert "ex1" in proc.stdout


def test_config_driven_sqrt_j_family(tmp_path):
    cfg = {
        "task": "check-theorem1",
        "sequences": {
            "s2": {"kind": "sqrt-j-scaled", "K": 2, "j": 2,
                   "base": {"kind": "doubly-exponential", "d": 4}},
            "s1": {"kind": "sqrt-j-scaled", "K": 2, "j": 1,
                   "base": {"kind": "doubly-exponential", "d": 4}},
        },
        "params": {"order": ["s2", "s1"], "N": 3, "precision": 128, "gamma": "1/2"},
        "output": {},
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    rc = main(["check-theorem1", "--config", str(f), "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["result"]["overall"] == "pass"
    assert rc == 0


def _run_config(tmp_path, cfg):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    return main([cfg["task"], "--config", str(f), "--out", str(tmp_path / "rep.json")])


@pytest.mark.parametrize("seq", [
    {"kind": "harmonic", "j": 2},
    {"kind": "hanluc", "j": 2},
])
def test_missing_base_exit_two(tmp_path, capsys, seq):
    cfg = {"task": "check-theorem1", "sequences": {"a": seq}, "params": {"N": 2}}
    assert _run_config(tmp_path, cfg) == 2
    assert "needs 'base'" in capsys.readouterr().err


_CONVERGENTS = {"task": "convergents", "params": {"N": 2}}
_INTERVAL_BASE = {"a": {"kind": "div-by-j", "j": 2, "base": {"kind": "one-plus-over-sqrt", "c": "3"}}}


@pytest.mark.parametrize("args, message", [
    (["enclose", "--example", "ex1", "--N", "3", "--precision", "0"],
     "precision must be at least 4"),
    (["check-named-example", "ex3", "--N", "0"], "N must be at least 1"),
    (["convergents", "--example", "ex3", "--N", "-1"], "N must be at least 1"),
    ({"task": "check-named-example", "params": {"name": "ex3", "N": 2.7}},
     "N must be an integer"),
    ({"task": "lemma2", "params": {"trials": True}}, "trials must be an integer"),
    (["lemma2", "--trials", "0"], "trials must be at least 1"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "constant", "value": True}}},
     "expected an exact rational"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "constant", "value": "3/0"}}},
     "zero denominator"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "doubly-exponential", "d": 3.0}}},
     "d must be an integer"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "phi-powers", "offset": "1",
                                         "base": {"kind": "constant", "value": 2}}}},
     "offset must be an integer"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "divisor-sqrt2", "variant": "2d",
                                         "base": {"kind": "constant", "value": 2}}}},
     "variant must be"),
    ({**_CONVERGENTS, "sequences": {"s": {"kind": "root-scaled", "root_index": 1,
                                         "poly": [-(2 ** 17)] + [0] * 16 + [1],
                                         "base": {"kind": "constant", "value": 2}}}},
     "degree 17 exceeds 16"),
    ({"task": "enclose", "sequences": _INTERVAL_BASE, "params": {"N": 3, "precision": 64}},
     "unknown sequence kind 'one-plus-over-sqrt'"),
    ({"task": "check-theorem1", "sequences": _INTERVAL_BASE, "params": {"N": 2}},
     "unknown sequence kind 'one-plus-over-sqrt'"),
])
def test_bad_config_values_exit_two(tmp_path, capsys, args, message):
    rc = _run_config(tmp_path, args) if isinstance(args, dict) else main(args)
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cfg, key", [
    ({"task": "check-named-example", "params": {"name": "ex3", "precision": None}}, "precision"),
    ({"task": "relation", "params": {"example": "ex1", "N": 3, "height": None}}, "height"),
])
def test_null_int_param_exit_two(tmp_path, capsys, cfg, key):
    # a present null is a bad value, not an absent key
    assert _run_config(tmp_path, cfg) == 2
    assert capsys.readouterr().err == f"config error: {key} must be an integer, got None\n"


def test_convergents_past_the_digit_limit_exit_two(capsys):
    # at the default N=10, ex1 reaches a coordinate with a 15310-bit numerator
    assert main(["convergents", "--example", "ex1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a 15310-bit / 1-bit rational ") and "int-to-str" in err


def test_enclose_precision_exhausted_exit_three(tmp_path, capsys):
    # [0; 2, 2, ...] and [0; 14, 14, ...] at N = 3 are enclosed to width
    # 1/(q_3 q_4), far above 2^-256, so the limit probe cannot start
    cfg = {"task": "relation",
           "sequences": {"a1": {"kind": "constant", "value": 2},
                         "a2": {"kind": "constant", "value": 14}},
           "params": {"use": "limit", "N": 3, "precision": 256}}
    assert _run_config(tmp_path, cfg) == 3
    assert "precision exhausted: input enclosure wider than 2^-precision" in capsys.readouterr().err


_RELATION = {"task": "relation", "params": {"example": "ex1", "N": 3, "precision": 128}}


@pytest.mark.parametrize("params, message", [
    ({"use": "limits"}, "use must be 'truncation' or 'limit'"),
    ({"use": 1}, "use must be 'truncation' or 'limit'"),
    ({"expand_field": "false"}, "expand_field must be true or false"),
    ({"expand_field": 0}, "expand_field must be true or false"),
])
def test_bad_relation_params_exit_two(tmp_path, capsys, params, message):
    cfg = {**_RELATION, "params": {**_RELATION["params"], **params}}
    assert _run_config(tmp_path, cfg) == 2
    assert message in capsys.readouterr().err


def test_remark_at_n_one(capsys):
    assert main(["remark", "--N", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["result"]["max_ratio"]["value"] == "2"


def test_flag_equals_value(capsys):
    assert main(["remark", "--N=3"]) == 0
    joined = capsys.readouterr()
    assert main(["remark", "--N", "3"]) == 0
    assert capsys.readouterr() == joined


@pytest.mark.parametrize("argv", [
    ["remark", "--bogus", "3"],
    ["remark", "--prec", "64"],  # no abbreviations
    ["remark", "--N"],
    ["remark", "--N", "x"],
    ["remark", "--format", "xml"],
    ["no-such-task"],
    [],
])
def test_malformed_command_line_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: ") and error.startswith("error: ")


def test_help_lists_every_flag(capsys):
    assert main(["--help"]) == 0
    listed = set(re.findall(r"^  --(\w+)", capsys.readouterr().out, re.M))
    flagged = {key for key, (_, _, flag) in cli._PARAMS.items() if flag}
    assert listed == flagged | {"config", "out", "format", "timings"}
    assert main(["remark", "-h"]) == 0


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cfindep", "remark", "--N", "3", "--format", "text"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("task: remark\nstatus: pass\n")
