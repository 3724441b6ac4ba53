"""Every module-level private name of the package is read somewhere in it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flaketriage"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level ``_``-prefixed function, class and constant, by name."""
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    return defined


def _names_read(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The bare names ``node`` reads outside ``skip``, including those a
    quoted annotation names."""
    read: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            read.add(current.id)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            try:
                quoted = ast.parse(current.value, mode="eval")
            except (SyntaxError, ValueError):
                pass
            else:
                read.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
        stack.extend(ast.iter_child_nodes(current))
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each private module-level definition that no code
    of the package reads: not its own module outside the definition itself,
    and no ``from module import name`` or ``module.name`` anywhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    elsewhere: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    orphans = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            if name not in elsewhere and name not in _names_read(tree, definition):
                orphans.append(f"{module}: {name}")
    return orphans


def test_package_reads_every_private_name():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert orphaned_private_names(sources) == []


def test_checker_finds_orphaned_names_and_only_those():
    sources = {
        "a.py": '''
from __future__ import annotations

_USED = 1
_ORPHAN = 2
_SHARED = 3
_QUOTED: int = 4
__version__ = "1"


def _recursive(n):
    return _recursive(n - 1) if n else _USED


def _called():
    return 0


class _Node:
    child: "_Node | _Leaf"


class _Leaf:
    pass


def public(x: "_QUOTED") -> int:
    return _called()
''',
        "b.py": '''
from .a import _SHARED
from . import a


def g():
    return a._Node
''',
    }
    assert orphaned_private_names(sources) == ["a.py: _ORPHAN", "a.py: _recursive"]
