"""The CLI's parameter table: every task's inputs are parsed once, before the
runner, and malformed input ends in exit 2 with a message, never a traceback."""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfindep import cli
from cfindep.catalog import build_config, catalog

README = Path(__file__).resolve().parents[1] / "README.md"

_SEQUENCES = {"a": {"kind": "constant", "value": "2"},
              "b": {"kind": "doubly-exponential", "d": 2},
              "c": {"kind": "polynomial", "coeffs": [1, 1]}}
_FIELD = {"minpoly": [-2, 0, 1], "root": ["1", "2"]}


def _main(config: dict, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cfindep TASK --config FILE``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([config["task"], *argv, "--config", path])
    return code, out.getvalue(), err.getvalue()


# each escaped as an uncaught exception before the parameter table
MALFORMED = [
    {"task": "check-theorem1", "sequences": _SEQUENCES, "params": {"order": 7}},
    {"task": "check-theorem1", "field": 5},
    {"task": "check-theorem1", "sequences": ["a"]},
    {"task": "check-theorem1", "params": 5},
    {"task": "check-theorem1", "output": 4},
    {"task": "check-named-example", "params": {"name": ["a"]}},
    {"task": "check-named-example", "params": {"name": "ex1", "K": 3}},
    {"task": "enclose", "params": {"example": ["a"]}},
    {"task": "relation", "sequences": _SEQUENCES, "params": {"values": 3}},
    {"task": "lemma1", "sequences": _SEQUENCES, "params": {"a": ["x"]}},
    {"task": "convergents", "sequences": _SEQUENCES, "params": {"sequence": ["a"]}},
    # descriptors whose quotients have no meaning
    {"task": "check-theorem1",
     "sequences": {"a": {"kind": "div-by-j", "j": 0, "base": _SEQUENCES["b"]}}},
    {"task": "check-theorem1", "sequences": {"a": {"kind": "hanluc", "j": 3}}},
    {"task": "check-theorem1", "sequences": {"a": {"kind": "pow2-geometric", "d": -1}}},
]


@pytest.mark.parametrize("config", MALFORMED)
def test_malformed_config_exits_two_without_traceback(config):
    code, out, err = _main(config)
    assert (code, out) == (2, "")
    assert err.startswith(("config error: ", "error: ")) and err.count("\n") == 1


@pytest.mark.parametrize("config, message", [
    ({"task": "remark", "field": "x"}, "config field must be an object, got 'x'"),
    ({"task": "remark", "sequences": None}, "config sequences must be an object, got None"),
    ({"task": "remark", "params": []}, "config params must be an object, got []"),
    ({"task": "remark", "output": "json"}, "config output must be an object, got 'json'"),
    ({"task": "remark", "output": {"format": "xml"}},
     "output.format must be 'json' or 'text', got 'xml'"),
    ({"task": "remark", "output": {"path": ["r.json"]}},
     "output.path must be a string, got ['r.json']"),
    ({"task": "check-theorem1", "field": {"minpoly": [-2, 0, 1], "root": 5},
      "sequences": _SEQUENCES}, "field.root must be [lo, hi] exact rationals"),
    ({"task": "check-named-example", "params": {"name": "ex3", "gamma": 0}},
     "gamma must lie strictly inside (0, 1)"),
    ({"task": "check-named-example", "params": {}}, "check-named-example needs params.name"),
    ({"task": "enclose", "sequences": _SEQUENCES, "params": {"example": ""}},
     "example must be a catalog name, got ''"),
    ({"task": "convergents", "sequences": _SEQUENCES, "params": {"example": 0}},
     "example must be a catalog name, got 0"),
    ({"task": "check-theorem1", "sequences": _SEQUENCES, "params": {"order": []}},
     "order must be a nonempty list of configured sequence names, got []"),
    ({"task": "relation", "sequences": _SEQUENCES, "params": {"values": []}},
     "values must be a nonempty list of configured sequence names, got []"),
    ({"task": "lemma1", "sequences": _SEQUENCES, "params": {"a": "b"}},
     "lemma1 needs both params.a and params.b, or neither"),
    ({"task": "check-theorem1", "sequences": _SEQUENCES, "params": {"order": ["a", "x"]}},
     "order must be a nonempty list of configured sequence names, got ['a', 'x']"),
    ({"task": "relation", "sequences": _SEQUENCES, "params": {"values": ["x"]}},
     "values must be a nonempty list of configured sequence names, got ['x']"),
    ({"task": "lemma1", "sequences": _SEQUENCES, "params": {"a": "x", "b": "a"}},
     "a must be a configured sequence name, got 'x'"),
    ({"task": "lemma1", "sequences": _SEQUENCES, "params": {"a": "a", "b": "x"}},
     "b must be a configured sequence name, got 'x'"),
    ({"task": "enclose", "sequences": _SEQUENCES, "params": {"sequence": "x"}},
     "sequence must be a configured sequence name, got 'x'"),
    ({"task": "relation", "params": {"example": "ex1", "use": None}},
     "use must be 'truncation' or 'limit', got None"),
    ({"task": "check-theorem1", "sequences": _SEQUENCES, "params": {"mode": ""}},
     "mode must be 'auto', 'real-part-sign' or 'house-half', got ''"),
    (MALFORMED[-3], "j must be at least 1, got 0"),
    (MALFORMED[-2], "hanluc j must be 1 or 2, got 3"),
    (MALFORMED[-1], "d must be at least 0, got -1"),
])
def test_malformed_value_message(config, message):
    # a present value is parsed even when it is falsy; only a missing key is absent
    assert _main(config) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["--out", ""], ["--out="], ["--config", ""], ["--config="],
], ids=["--out ''", "--out=", "--config ''", "--config="])
def test_empty_path_flag_exits_two(argv):
    # an empty path names no file: it is refused, not read as "no path given"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check-named-example", "ex1", "--N", "3", *argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(("config error: ", "error: "))


def test_empty_config_output_path_exits_two():
    config = {"task": "check-named-example", "params": {"name": "ex1", "N": 3},
              "output": {"path": ""}}
    code, out, err = _main(config)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_present_config_null_field_means_no_field():
    # to_dict writes "field": null, so a report's config echo must read back
    config = {"task": "remark", "field": None, "params": {"N": 3}}
    assert _main(config)[0] == 0
    assert cli.RunConfig.from_dict(cli.RunConfig("remark").to_dict()) == cli.RunConfig("remark")


def test_catalog_k_only_where_the_entry_takes_one():
    with pytest.raises(ValueError, match="^ex1 takes no K$"):
        build_config("ex1", K=3)
    assert build_config("c2", K=2).M == 2
    assert build_config("c2").M == catalog()["c2"].defaults["K"]


def test_config_value_wins_over_positional_name():
    config = {"task": "check-named-example", "params": {"name": "ex3", "N": 2, "precision": 64}}
    code, out, _ = _main(config, "nope")
    assert code == 0 and json.loads(out)["result"]["example"] == "ex3"


# The grammar the property test draws from: a valid value of every table
# parameter at a small size, and values of the wrong type or range.
_NAMES = sorted(_SEQUENCES)
_VALID = {
    "N": st.integers(1, 4),
    "precision": st.integers(16, 64),
    "height": st.integers(1, 100),
    "gamma": st.sampled_from(["1/2", "1/3", 3, "2/3", "0"]),
    "seed": st.integers(-5, 10 ** 6),
    "trials": st.integers(1, 3),
    "example": st.sampled_from(sorted(catalog())),
    "sequence": st.sampled_from(_NAMES),
    "j": st.integers(1, 4),
    "name": st.sampled_from(sorted(catalog())),
    "K": st.integers(1, 4),
    "order": st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3),
    "values": st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3),
    "a": st.sampled_from(_NAMES),
    "b": st.sampled_from(_NAMES),
    "mode": st.sampled_from(["auto", "real-part-sign", "house-half"]),
    "use": st.sampled_from(["truncation", "limit"]),
    "expand_field": st.booleans(),
}
_MUTATED = st.sampled_from([None, True, False, 1.5, "x", "", [], ["a"], {}, {"a": 1}, 0, -1, -7])
_SIZES = ("N", "precision", "trials")  # always set: no run takes a default size


def test_grammar_covers_the_table():
    assert set(_VALID) == set(cli._PARAMS)
    assert {key for _, defaults in cli.TASKS.values() for key in defaults} == set(cli._PARAMS)


@st.composite
def _configs(draw) -> dict:
    task = draw(st.sampled_from(list(cli.TASKS)))
    params = {}
    for key, default in cli.TASKS[task][1].items():
        if key in _SIZES or default is ... or draw(st.booleans()):
            params[key] = draw(_MUTATED if draw(st.integers(0, 5)) == 5 else _VALID[key])
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, unique=True))  # in draw order
    config = {"task": task, "params": params, "sequences": {k: _SEQUENCES[k] for k in names}}
    if draw(st.booleans()):
        config["field"] = draw(st.sampled_from([_FIELD, None]))
    if draw(st.booleans()):
        config["output"] = {"format": draw(st.sampled_from(["json", "text"]))}
    if draw(st.integers(0, 9)) == 9:
        config[draw(st.sampled_from(["field", "sequences", "params", "output"]))] = draw(_MUTATED)
    return config


def _with_malformed_examples(test):
    for config in MALFORMED:
        test = example(config)(test)
    return test


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@_with_malformed_examples
@given(_configs())
def test_cli_boundary_property(config):
    code, out, err = first = _main(config)
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert out == "" and err.startswith(
            ("config error: ", "error: ", "precision exhausted: "))
    elif out.startswith("task: "):
        assert (code == 1) == (out.split("\n")[1] == "status: fail")
    else:
        report = json.loads(out)
        assert report["exit_code"] == code and (code == 1) == (report["status"] == "fail")
    assert _main(config) == first


def _shown(default) -> str:
    if default is ...:
        return "required"
    if default is None:
        return "-"
    return json.dumps(str(default) if isinstance(default, Fraction) else default)


def test_readme_parameter_table_matches_the_code():
    text = README.read_text(encoding="utf-8")
    header = "| parameter | flag | type | tasks and defaults |\n|---|---|---|---|\n"
    table = text[text.index(header) + len(header):].split("\n\n", 1)[0].splitlines()
    rows = []
    for key, (_, description, flag) in cli._PARAMS.items():
        defaults = ", ".join(f"`{task}` {_shown(d[key])}"
                             for task, (_, d) in cli.TASKS.items() if key in d)
        rows.append(f"| `{key}` | {f'`--{key}`' if flag else '-'} | {description} | {defaults} |")
    assert table == rows
    synopsis = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1)
    assert set(re.findall(r"--(\w+)", synopsis)) >= {k for k, v in cli._PARAMS.items() if v[2]}
