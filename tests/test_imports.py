"""Every name a library module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

import macroreal

PACKAGE = Path(macroreal.__file__).resolve().parent


def unused_imports(source: str) -> list:
    """Imported names that no ``Name`` node of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from typing import Iterable, Sequence\nimport numpy as np\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
