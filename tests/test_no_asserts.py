import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def test_library_has_no_assert_statements():
    # invariants must raise explicitly: `python -O` strips assert statements
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
