import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def _called_name(node):
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def _functions(path):
    tree = ast.parse(path.read_text(), str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _callers(name):
    return sorted(
        f"{path.name}:{fn.name}"
        for path in PACKAGE.rglob("*.py")
        for fn in _functions(path)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called_name(node) == name
    )


def test_only_tensor_gl_calls_the_pieri_rule():
    # lr_multiply has no column branch: a column product outside tensor_gl goes
    # through the strip DP, so the Pieri rule has one caller
    assert _callers("_add_column") == ["symfunc.py:tensor_gl"]


def test_only_lr_multiply_calls_the_strip_successors():
    # one kernel builds each successor (shape, cumulative counts) whole: no
    # separate count-vector bump, so the successor rule has one home too
    assert _callers("_strip_extensions") == ["symfunc.py:lr_multiply"]
    names = {fn.name for path in PACKAGE.rglob("*.py") for fn in _functions(path)}
    assert "_strip_extensions" in names and "_bump" not in names


def test_symfunc_keeps_no_class_memo():
    # the translation-class memo belongs to bott, its only reader
    fns = _functions(PACKAGE / "symfunc.py")
    assert fns
    with_memo = [
        fn.name for fn in fns
        if any(a.arg == "memo" for a in fn.args.args + fn.args.kwonlyargs)
    ]
    assert with_memo == []
    assert "_lr_class" not in {fn.name for fn in fns}
