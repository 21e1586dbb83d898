import ast
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def _called_name(node):
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def test_verification_report_built_in_one_place():
    # every suite reports through one builder, so the counterexample rule,
    # the timing and the pass/fail note are decided once
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and _called_name(node) == "VerificationReport"
    ]
    assert len(found) == 1, found
