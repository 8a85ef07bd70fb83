"""Every name a `wittpolar` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import wittpolar

SRC = Path(wittpolar.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing else in the module
    mentions.  `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(n for n in imported if n not in used)


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b", "os"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
