"""Every name a module imports is referenced in that module: the library's
modules, the tests, the tools and the demos."""

import ast
from pathlib import Path

import pytest

import macroreal

PACKAGE = Path(macroreal.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports names to re-export them
CHECKED = {path.name: path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
CHECKED.update(
    (f"{folder}/{path.name}", path)
    for folder in ("tests", "tools", "demos") for path in (ROOT / folder).glob("*.py")
)


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


@pytest.mark.parametrize("module", sorted(CHECKED))
def test_module_has_no_unused_imports(module):
    assert unused_imports(CHECKED[module].read_text()) == []
