"""fincat needs only the standard library at runtime: every import in
`src/fincat` names the package itself or a standard-library module.  An
installed third-party package would let a stray import pass every other
test, so this reads the sources instead of importing them."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "fincat").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [
        name for name in imported
        if name.split(".")[0] != "fincat" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"{path.name} imports {outside}"
