import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def _called_name(node):
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def _functions(path):
    tree = ast.parse(path.read_text(), str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_only_tensor_gl_calls_the_pieri_rule():
    # lr_multiply has no column branch: a column product outside tensor_gl goes
    # through the strip DP, so the Pieri rule has one caller
    callers = sorted(
        f"{path.name}:{fn.name}"
        for path in PACKAGE.rglob("*.py")
        for fn in _functions(path)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called_name(node) == "_add_column"
    )
    assert callers == ["symfunc.py:tensor_gl"]


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
