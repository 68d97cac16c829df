"""Every name a package module imports is used in that module."""
import ast
from pathlib import Path

import vqpde

PACKAGE = Path(vqpde.__file__).parent

# Imported but unused on purpose: perfbench/tracing.PATCHES patches
# ``ansatz.apply_gate`` and ``costlib.apply_term``, so the bindings must exist.
ALLOWED = {("ansatz", "apply_gate"), ("costlib", "apply_term")}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.add(bound)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    src = "import os\nfrom math import pi, sqrt as root\nx = root(2)\n"
    assert unused_imports(src) == ["os", "pi"]


def test_no_unused_imports_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in unused_imports(path.read_text()):
            if (path.stem, name) not in ALLOWED:
                found.append(f"{path.stem}.{name}")
    assert found == []
