"""Every name a package module imports is used in that module, and every
name the benchmark tracer patches exists and is put back."""
import ast
import importlib.util
from pathlib import Path
from types import ModuleType

import vqpde

PACKAGE = Path(vqpde.__file__).parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# Imported but unused on purpose: the tracer patches these bindings, so they
# must exist.
ALLOWED = {(owner.__name__.rsplit(".", 1)[-1], attr)
           for owner, attr, *_ in tracing.PATCHES
           if isinstance(owner, ModuleType)}


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


def test_tracer_restores_every_patched_binding():
    before = tracing.installed_bindings()
    with tracing.Tracer():
        during = tracing.installed_bindings()
    after = tracing.installed_bindings()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
