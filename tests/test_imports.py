"""Every name a module of the package or of the tests imports is referenced in
that module, checked on the parsed source with the standard-library ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "gpalign").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression reads.  ``from __future__`` imports and the names ``__all__``
    lists (re-exports) are not counted."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_skips_reexports():
    source = ("from __future__ import annotations\n"
              "import os, json\nimport numpy.linalg\n"
              "from math import pi as PI, tau\n"
              "__all__ = ['tau']\n"
              "def f():\n    from math import e\n    return json.dumps(PI)\n")
    assert unused_imports(source) == ["e (line 7)", "numpy (line 3)", "os (line 2)"]
