import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent
SHIFTS = PACKAGE / "shifts.py"


class Builders(ast.NodeVisitor):
    """(file, enclosing function) for each `TermComplex(...)` call."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "TermComplex":
            self.found.append((self.name, self.scope[-1]))
        self.generic_visit(node)


def test_only_general_shift_builds_term_complexes():
    # every shift image, one step or many, comes out of one loop
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        builders = Builders(path.name)
        builders.visit(ast.parse(path.read_text(), str(path)))
        found += builders.found
    assert set(found) == {("shifts.py", "general_shift")}


def test_one_step_wrappers_are_one_general_shift_call():
    functions = {
        node.name: node for node in ast.parse(SHIFTS.read_text(), str(SHIFTS)).body
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("shift_down_generator", "shift_up_generator"):
        docstring, body = functions[name].body
        assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
        assert isinstance(body, ast.Return) and isinstance(body.value, ast.Call), name
        assert getattr(body.value.func, "id", None) == "general_shift", name
