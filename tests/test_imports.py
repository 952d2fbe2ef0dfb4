"""Every pairkey module except __init__ (which re-exports) uses each name it
imports, at any depth: a deletion that leaves an import behind fails here."""

import ast
from pathlib import Path

import pytest

import pairkey

MODULES = sorted(p for p in Path(pairkey.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\n"
                          "from os import path, sep\nx = np.pi + len(sep)\n") == \
        ["math (line 1)", "path (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
