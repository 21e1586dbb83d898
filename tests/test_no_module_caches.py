import ast
from pathlib import Path

import pytest

import schurwin

PACKAGE = Path(schurwin.__file__).parent
EMPTY_CALLS = {"set", "dict", "list"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _is_empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in EMPTY_CALLS
        and not node.args
        and not node.keywords
    )


def _is_mutable_default(node):
    # any dict, list or set display, or a dict()/list()/set() call
    return isinstance(node, (ast.Dict, ast.List, ast.Set)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in EMPTY_CALLS
    )


def _mutable_defaults(tree, name):
    return [
        f"{name}:{default.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in node.args.defaults + node.args.kw_defaults
        if default is not None and _is_mutable_default(default)
    ]


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_library_has_no_module_level_caches():
    # memos live per call: a module-level empty container or a functools
    # cache would grow for the life of the process
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if value is not None and _is_empty_container(value):
                found.append(f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    f"{path.name}:{dec.lineno}"
                    for dec in node.decorator_list
                    if _decorator_name(dec) in CACHE_DECORATORS
                ]
    assert found == []


def _parameters(fn):
    return [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]


def test_only_k_matrix_and_hom_bundle_cohomology_take_a_memo():
    # a check builds and owns its other tables (verify's localization tables carry
    # their points); the two memos a caller may share across calls key by what
    # fills them: `k_matrix` keeps one table per Context, and the Hom class memo
    # is keyed by the weights it was built from
    with_memo = []
    for module, names in schurwin._EXPORTS.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        with_memo += [
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names.split()
            and "memo" in _parameters(node)
        ]
    assert sorted(with_memo) == ["hom_bundle_cohomology", "k_matrix"]
    shifts = ast.parse((PACKAGE / "shifts.py").read_text()).body
    unit_step = [node for node in shifts if getattr(node, "name", None) == "_unit_step"]
    assert len(unit_step) == 1 and "keep_det" not in _parameters(unit_step[0])


def test_library_has_no_mutable_default_arguments():
    # a `steps={}` default would be a table shared by every call for the life
    # of the process: caller-owned tables default to None
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _mutable_defaults(ast.parse(path.read_text(), str(path)), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(steps={}): pass",
        "def f(a, memo=[]): pass",
        "def f(*, seen=set()): pass",
        "def f(x=dict()): pass",
        "def f(x=list((1,))): pass",
        "async def f(x={1: 2}): pass",
        "class C:\n    def m(self, x=[1]): pass",
        "g = lambda x={}: x",
    ],
)
def test_mutable_default_guard_catches(source):
    assert _mutable_defaults(ast.parse(source), "snippet")


def test_mutable_default_guard_allows_immutable_defaults():
    source = "def f(a=None, b=(), c=range(3), d=frozenset(), *, e=0, f='x', g=None): pass"
    assert _mutable_defaults(ast.parse(source), "snippet") == []
