"""Every module of the package uses each name it imports."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flaketriage"
# The package's __init__ imports names only to re-export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # A quoted annotation names its types in a string.
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(
                n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name)
            )
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_checker_finds_unused_names_and_only_those():
    source = """
from __future__ import annotations
import os.path
import json as js
from typing import Callable, Sequence
from .model import Corpus, Label, TestId


def f(x: "Corpus") -> Sequence[int]:
    return os.path.join(x, Label.FLAKY)
"""
    assert unused_imports(source) == ["4: js", "5: Callable", "6: TestId"]
