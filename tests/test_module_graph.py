"""No orphan modules: every module under src/repro is imported by another.

A module nothing in the package imports is reached only by its own tests,
a benchmark or an example, so nothing the system runs needs it.  Package
``__init__``s and ``repro.__main__`` are entry points and are exempt.
Relative and function-local imports count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# Kept without an importer: its exhaustive search is what backs the claim
# in docs/substrates.md that the Fano plane is a maximum 2-cover-free
# family of 3-sets.
ALLOWED_ORPHANS = {"repro.combinatorics.search"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, name: str) -> set[str]:
    """Full names of every module the module at *path* may import."""
    package = name.split(".")
    if path.name != "__init__.py":
        package.pop()
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_every_module_is_imported_by_another():
    names = {path: _module_name(path) for path in SRC.rglob("*.py")}
    imported: set[str] = set()
    for path, name in names.items():
        imported |= _imports(path, name) - {name}
    orphans = {name for path, name in names.items()
               if path.name != "__init__.py" and name != "repro.__main__"
               and name not in imported}
    assert orphans == ALLOWED_ORPHANS


def test_the_runtime_imports_nothing_from_core():
    """The fault-tolerant runtime runs whatever module-level evaluation
    its caller passes (the sweep engine's shards); it does not reach
    into the planner or any other ``repro.core`` module."""
    path = SRC / "repro" / "service" / "runtime.py"
    core = {name for name in _imports(path, "repro.service.runtime")
            if name == "repro.core" or name.startswith("repro.core.")}
    assert core == set()
