"""Every public result is a function of its arguments: no hidden inputs in src/.

The library reads no environment variable, rebinds no module global, and
never picks a working precision on the caller's behalf.  The only precision
parameters with a default are the two ``quotient`` methods, where exact kinds
need none.
"""

import ast
import pathlib

import cfindep

PACKAGE = pathlib.Path(cfindep.__file__).parent
PRECISION_NAMES = {"prec", "precision"}
OPTIONAL_PRECISION = {("CFSpec", "quotient"), ("Thm1Config", "quotient")}


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
            if (cls, name) in OPTIONAL_PRECISION:
                continue
            for arg in PRECISION_NAMES.intersection(_defaulted(fn.args)):
                found.append(f"{path}:{fn.lineno} {cls + '.' if cls else ''}{name}({arg}=...)")
    assert found == []
