import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurwin

PACKAGE = Path(schurwin.__file__).parent
# modules whose import time a CLI call should not pay before it needs them
HEAVY = {
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "schurwin.verify",
    "schurwin.bott",
    "schurwin.symfunc",
}


def _modules_after(code):
    """The names in sys.modules after running `code` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_heavy_module():
    loaded = _modules_after("import schurwin.cli") - _modules_after("pass")
    assert "schurwin.cli" in loaded
    assert sorted(loaded & HEAVY) == []


@pytest.mark.parametrize(
    "argv, absent",
    [
        ("windows --d 4 --r 2", HEAVY | {"schurwin.shifts", "schurwin.staircase"}),
        ("staircase --d 4 --r 2 --delta 1 --sequence", HEAVY | {"schurwin.shifts"}),
        ("twist --d 4 --r 2 --gen 3,1 --format json", HEAVY),
        ("matrix --d 5 --r 2 --from 1 --to 0", HEAVY),
    ],
)
def test_command_imports_only_what_it_uses(argv, absent):
    # runs one command in-process in a fresh interpreter, output discarded
    code = (
        "import contextlib, io\n"
        "from schurwin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv.split()!r})\n"
        "if status:\n"
        "    raise SystemExit(status)"
    )
    loaded = _modules_after(code) - _modules_after("pass")
    assert "schurwin.emit" in loaded
    assert sorted(loaded & absent) == []


@pytest.mark.parametrize(
    "module, expected",
    [
        ("schurwin.symfunc", {"schurwin", "schurwin.partitions", "schurwin.symfunc"}),
        ("schurwin.bott", {"schurwin", "schurwin.partitions", "schurwin.symfunc", "schurwin.bott"}),
    ],
)
def test_symfunc_and_bott_sit_below_the_window_shift_stack(module, expected):
    # the shared rules live in `partitions`, so neither the LR and evaluation
    # layer nor Bott's rule loads `shifts`, `staircase` or `windows`
    loaded = {m for m in _modules_after(f"import {module}") if m.partition(".")[0] == "schurwin"}
    assert sorted(loaded & {"schurwin.shifts", "schurwin.staircase", "schurwin.windows"}) == []
    assert loaded == expected


def _imports_dataclasses(node):
    if isinstance(node, ast.Import):
        return any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").partition(".")[0] == "dataclasses"
    return False


def test_library_does_not_import_dataclasses():
    # `dataclasses` pulls in `inspect` at import time; the value types are
    # NamedTuples and __slots__ classes instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_dataclasses(node)
    ]
    assert found == []
