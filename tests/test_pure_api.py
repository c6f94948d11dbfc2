"""Every public result is a function of its arguments: no hidden inputs in src/.

The library reads no environment variable, rebinds no module global, and
never picks a working precision on the caller's behalf.  The only precision
parameter with a default is that of ``CFSpec.quotient``, where exact kinds
need none.  It runs on the standard library alone: sympy and numpy are test
oracles, never imported by the package.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import cfindep
from cfindep import criteria, relation
from cfindep.bigreal import poly
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.interval import DyadicInterval, singleton

PACKAGE = pathlib.Path(cfindep.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent
PRECISION_NAMES = {"prec", "precision"}


def _modules():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        yield path.relative_to(PACKAGE), ast.parse(path.read_text(), filename=str(path))


def _defaulted(args: ast.arguments):
    """Names of the parameters of ``args`` that carry a default."""
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]] if args.defaults else []
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def _functions(tree):
    """(enclosing class name or None, function node) for every def and lambda."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield cls, child
                yield from walk(child, None)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


def test_no_global_statement():
    found = [f"{path}:{node.lineno}" for path, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_no_environment_reads():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in ("environ", "getenv"):
                found.append(f"{path}:{node.lineno} {name}")
    assert found == []


def test_precision_has_no_default():
    found = []
    for path, tree in _modules():
        for cls, fn in _functions(tree):
            name = getattr(fn, "name", "<lambda>")
            for arg in PRECISION_NAMES.intersection(_defaulted(fn.args)):
                found.append(f"{path}:{fn.lineno} {cls + '.' if cls else ''}{name}({arg}=...)")
    assert found == []


def test_no_sympy_or_numpy_import():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] in ("sympy", "numpy")]
    assert found == []


def _all_names(tree):
    """The strings of a module-level ``__all__ = [...]``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_imports():
    found = []
    for path, tree in _modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _all_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path}:{node.lineno} {name}")
    assert found == []


def _read_names(tree) -> set:
    """Every name a module reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_assignment_is_read():
    # a module-level constant that src/, tests/ and perfbench/ never read,
    # and that __all__ does not export, is dead code
    read = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            read |= _read_names(ast.parse(path.read_text(), filename=str(path)))
    found = []
    for path, tree in _modules():
        exported = _all_names(tree)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__" \
                            and name.id not in read | exported:
                        found.append(f"{path}:{node.lineno} {name.id}")
    assert found == []


SCALAR_TYPES = {"FieldElement", "Fraction", "DyadicInterval"}


def test_scalar_types_are_read_only_in_cfcore():
    # cfcore.scalar decides how each quotient type is read; the conditions
    # and the lemmas ask it instead of testing types themselves
    found = []
    for path, tree in _modules():
        if path.name not in ("criteria.py", "lemmas.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                found += [f"{path}:{node.lineno} {name}" for name in sorted(names & SCALAR_TYPES)]
    assert found == []


# A config-built Q(cbrt 2): field_new proves x^3 - 2 irreducible through its
# certified complex roots, and the embeddings are then computed outright.
_CBRT2 = {
    "task": "check-theorem1",
    "field": {"minpoly": [-2, 0, 0, 1], "root": ["1", "2"]},
    "sequences": {"big": {"kind": "doubly-exponential", "d": 3},
                  "small": {"kind": "doubly-exponential", "d": 2}},
    "params": {"order": ["big", "small"], "N": 3, "precision": 128},
}

_FRESH_RUN = """
import contextlib, io, json, pathlib, sys
from cfindep import cli
from cfindep.numfield import embeddings
from cfindep.sequences import parse_field

config_path = sys.argv[1]
runs = [["check-named-example", name, "--N", "3"] for name in ("ex1", "c3", "t2")]
runs.append(["check-theorem1", "--config", config_path])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
field = parse_field(json.loads(pathlib.Path(config_path).read_text())["field"])
pairs = embeddings(field, 128).complex_pairs
print(codes, len(pairs), sorted({"sympy", "numpy"} & set(sys.modules)))
"""


def test_runs_import_neither_sympy_nor_numpy(tmp_path):
    config = tmp_path / "cbrt2.json"
    config.write_text(json.dumps(_CBRT2))
    src = os.path.dirname(os.path.dirname(cfindep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(config)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 1] 1 []"


def test_cli_import_runs_no_dataclass_code_generator():
    # every CLI run is a cold process; dataclasses (which pulls in inspect)
    # and its exec-based class generation would cost each one start-up time
    src = os.path.dirname(os.path.dirname(cfindep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cfindep.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# argparse's gettext lookups import locale: about 3 ms of every cold run
_NO_ARGPARSE = """
import contextlib, io, sys
import cfindep.cli
loaded = lambda: sorted({"argparse", "gettext", "locale"} & set(sys.modules))
imported = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cfindep.cli.main(["check-named-example", "c2"])
print(imported, code, loaded())
"""


def test_cli_loads_no_argument_parser():
    src = os.path.dirname(os.path.dirname(cfindep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NO_ARGPARSE], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] 0 []"


def _tracer():
    """``perfbench/tracer.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_methods_exist():
    # Tracer.install wraps each of these methods by name, so a rename or a
    # removal would fail every traced benchmark run
    missing = []
    for (modname, clsname), methods in _tracer().METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname, None)
        missing += [f"{modname}.{clsname}.{attr}" for attr in methods
                    if not inspect.isfunction(getattr(cls, attr, None))]
    assert missing == []


def test_benchmark_layer_metrics_name_traced_functions():
    # the tracer wraps the functions in each layer module's __all__ and the
    # methods it lists; a per-layer metric of BENCHMARK.json that names
    # anything else makes a traced benchmark run fail, so a public function
    # the benchmark reads may not be deleted or made private
    tracer = _tracer()
    traced = set()
    for modname, layer in tracer.LAYERS.items():
        mod = importlib.import_module(modname)
        traced.update(f"{layer}.{name}" for name in mod.__all__
                      if inspect.isfunction(getattr(mod, name)) and getattr(mod, name).__module__ == modname)
    for (modname, _), methods in tracer.METHODS.items():
        traced.update(f"{tracer.LAYERS[modname]}.{name}" for name in methods.values())
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    unresolved = []
    for metric in benchmark["per_layer"]:
        head, stat = metric["name"].rsplit(".", 1)
        if head == "trace":  # the harness's own overhead figure
            continue
        if head not in (set(tracer.LAYERS.values()) if stat == "self_s" else traced):
            unresolved.append(metric["name"])
    assert unresolved == []


# Installs the benchmark's tracer in a fresh interpreter, as an operation of
# the benchmark does, and prints the names it wrapped.  -B keeps the import
# from writing bytecode next to perfbench/tracer.py.
_INSTALL_TRACER = """
import importlib.util, json, sys
import cfindep.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
tracer = mod.Tracer(None)
tracer.install()
print(json.dumps(tracer.names))
"""


def test_installed_tracer_wraps_every_benchmarked_function():
    # a function the tracer cannot wrap (a decorated callable for which
    # inspect.isfunction is false) has no calls or total_s, and a traced
    # benchmark run fails on the metric that names it
    src = os.path.dirname(os.path.dirname(cfindep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-B", "-c", _INSTALL_TRACER,
                          str(REPO / "perfbench" / "tracer.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    wrapped = set(json.loads(out.stdout.strip().splitlines()[-1]))
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = {m["name"].rsplit(".", 1)[0] for m in benchmark["per_layer"]
             if m["name"].rsplit(".", 1)[1] in ("calls", "total_s", "repeat_share")}
    assert "bigreal.refine_root" in named
    assert sorted(named - wrapped) == []


def test_tracer_probes_bind_existing_parameters():
    # the tracer's argument probes read growth_bound's prec, refine_root's
    # target_width and lll_reduce's basis by name: a renamed parameter would
    # pass every other test and fail a traced benchmark run with KeyError
    tracer = _tracer().Tracer(64)
    calls = {
        "criteria.growth_bound": (criteria.growth_bound, (singleton(4), 1, Fraction(1, 2), 2, 128)),
        "bigreal.refine_root": (poly.refine_root, (poly.IntPoly.of(-2, 0, 1),
                                                    DyadicInterval(Dyadic(1), Dyadic(2)), Dyadic(1, -80))),
        "relation.lll_reduce": (relation.lll_reduce, ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],)),
    }
    for name, (fn, args) in calls.items():
        tracer._probe_for(name, fn)(args, {})
    assert (tracer.escalated, tracer.bits_max, tracer.dim_max) == (1, 80, 3)


def test_benchmark_reads_of_the_catalog_hold():
    # perfbench/op.py reads each entry's default precision through
    # cli.catalog() on traced runs, and perfbench/checks.py an entry's j-th
    # sequence through build_config; a catalog change that broke either would
    # fail only those benchmark runs
    from cfindep import cli
    from cfindep.catalog import build_config
    from cfindep.sequences import CFSpec

    assert cli.catalog()
    for name, entry in cli.catalog().items():
        assert all(type(entry.defaults.get(key)) is int for key in ("N", "precision")), name
        seqs = build_config(name).sequences
        assert type(seqs) is list and seqs and all(type(s) is CFSpec for s in seqs), name
