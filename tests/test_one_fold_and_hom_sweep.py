import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def _tree(name):
    path = PACKAGE / name
    return ast.parse(path.read_text(), str(path))


def test_verify_imports_no_private_bott_or_shifts_name():
    # the Hom-class grouping lives in `bott.hom_sweep` and the K-matrix fold in
    # `shifts.k_matrix`: verify reads them, not the helpers under them
    private = [
        (node.module, alias.name) for node in ast.walk(_tree("verify.py"))
        if isinstance(node, ast.ImportFrom) and node.module in ("bott", "shifts")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


class Callers(ast.NodeVisitor):
    """(file, enclosing function) for each call of `name`."""

    def __init__(self, path, name):
        self.path, self.name, self.scope, self.found = path, name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == self.name:
            self.found.append((self.path.name, self.scope[-1]))
        self.generic_visit(node)


def test_only_k_matrix_calls_unit_step():
    # every unit step, and so every fold of them, is built in one loop
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        callers = Callers(path, "_unit_step")
        callers.visit(ast.parse(path.read_text(), str(path)))
        found += callers.found
    assert found == [("shifts.py", "k_matrix")]
