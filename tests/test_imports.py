"""Every name a package module imports is used in that module, every
function, class and method the package defines is named somewhere else in
it, the names kept only for the benchmark tracer are called by nothing
else, and every name the tracer patches exists and is put back."""
import ast
from collections import Counter
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
# Defined but named nowhere else in the package on purpose: the tracer
# patches these, so they must exist ...
PINNED = {name for _, attr, _, _, orig in tracing.PATCHES
          for name in (attr, orig) if name}
# ... and these are public API that callers outside the package use.
PUBLIC = {
    "layout_1d",                 # README's programmatic example
    "ns_stationarity_residual",  # the acceptance gate
    "converged",                 # OptimizationTrace.converged, the tracer
    "zero",                      # QuantumState.zero, in the tracer's tests
}


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


def _named(tree) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_definitions(sources: dict) -> list:
    """"module.name" of every function, class or method defined in
    ``sources`` (module name -> text) that no code outside its own body
    names; dunder methods are called implicitly and are skipped."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and named[node.name] == _named(node)[node.name]):
                found.append(f"{mod}.{node.name}")
    return sorted(found)


def test_dead_definition_detector():
    a = ("class Used:\n    def called(self): return 1\n"
         "    def idle(self): return self.idle()\n"
         "    def __repr__(self): return ''\n"
         "def orphan(): return orphan\n")
    b = "def main(): return Used().called()\nmain()\n"
    assert dead_definitions({"a": a, "b": b}) == ["a.idle", "a.orphan"]


def test_no_dead_definitions_in_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [d for d in dead_definitions(sources)
            if d.split(".")[1] not in PINNED | PUBLIC] == []


# Kept only because the tracer patches them (ROADMAP item 3 deletes them):
# nothing in the package may call them but one another.
TRACER_ONLY = {"apply_gate", "apply_shift", "apply_term", "apply_expr",
               "prepare", "build_cost", "evaluate_terms", "shift_split_eval"}


def tracer_only_calls(sources: dict) -> list:
    """"module:line name" of every call of a ``TRACER_ONLY`` name in
    ``sources`` (module name -> text) outside the bodies of those names."""
    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        exempt = {id(n) for d in ast.walk(tree)
                  if isinstance(d, ast.FunctionDef) and d.name in TRACER_ONLY
                  for n in ast.walk(d)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and id(n) not in exempt:
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if name in TRACER_ONLY:
                    found.append(f"{mod}:{n.lineno} {name}")
    return sorted(found)


def test_tracer_only_call_detector():
    src = ("def prepare(s): return s\n"
           "def apply_term(t): return prepare(t)\n"
           "def readout(s): return prepare(s)\n"
           "cost.evaluate_terms(1)\n")
    assert tracer_only_calls({"m": src}) == ["m:3 prepare",
                                             "m:4 evaluate_terms"]


def test_nothing_in_the_package_calls_a_tracer_only_name():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert tracer_only_calls(sources) == []


def test_tracer_restores_every_patched_binding():
    before = tracing.installed_bindings()
    with tracing.Tracer():
        during = tracing.installed_bindings()
    after = tracing.installed_bindings()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
