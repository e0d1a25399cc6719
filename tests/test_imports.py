"""Every name a program module or script imports is used in that file.

An AST scan over ``src/sdesym`` and ``scripts`` that needs nothing beyond
the standard library.  Package ``__init__.py`` files are skipped: their
imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sdesym"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((PACKAGE.parents[1] / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Dict, List\nx: List = []\n") == [
        (1, "os"),
        (2, "Dict"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
