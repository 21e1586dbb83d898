import ast
from pathlib import Path

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
