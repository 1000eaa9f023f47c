"""The benchmark's traced entry points resolve, and every export has a production caller."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmonitor"

# Exports that nothing in src/ or scripts/ reads yet, each with its reason to stay.
UNREFERENCED_EXPORTS: dict[str, str] = {}


def test_every_traced_entry_point_resolves(monkeypatch):
    # the tracer rebinds each (module, attr) with getattr, so a missing one breaks every traced run
    path = ROOT / "qmbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_qmbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"qmonitor.{mod}"), attr, None))
    ]
    assert missing == []


def read_names(paths) -> set[str]:
    """Every name read as a variable or as an attribute in the given sources."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_production_reference():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    read = read_names(sources + sorted((ROOT / "scripts").glob("*.py")))
    assert [name for name in exports if name not in read and name not in UNREFERENCED_EXPORTS] == []
    # an entry whose name gained a production reference leaves the list
    assert [name for name in UNREFERENCED_EXPORTS if name in read] == []
    assert set(UNREFERENCED_EXPORTS) <= set(exports)
