import warnings
from pathlib import Path

import schurwin

PACKAGE = Path(schurwin.__file__).parent


def test_library_compiles_with_warnings_as_errors():
    # a bad escape such as "\;" in a LaTeX template warns only while the source
    # compiles, which a cached __pycache__ skips at import
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
