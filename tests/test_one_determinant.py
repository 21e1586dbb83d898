import ast
from pathlib import Path

import schurwin

SHIFTS = Path(schurwin.__file__).parent / "shifts.py"


def _tree():
    return ast.parse(SHIFTS.read_text(), str(SHIFTS))


def test_shifts_has_one_determinant():
    # every K-matrix determinant, printed or checked, goes through the peel
    names = [
        node.name for node in _tree().body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("determinant")
    ]
    assert names == ["int_determinant"]


def test_k_matrix_determinant_calls_int_determinant():
    (kmatrix,) = [
        node for node in _tree().body if isinstance(node, ast.ClassDef) and node.name == "KMatrix"
    ]
    (method,) = [
        node for node in kmatrix.body
        if isinstance(node, ast.FunctionDef) and node.name == "determinant"
    ]
    calls = [node.func.id for node in ast.walk(method)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls == ["int_determinant"]
