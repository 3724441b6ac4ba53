"""Only ``matching`` builds a ``TriageVerdict`` field by field.

The conservative rule (flaky only on a flaky-only match) lives in
``TriageBasis.of`` and ``TriageVerdict.of``; every other module builds its
verdicts through ``TriageVerdict.of``, so it cannot restate the rule.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flaketriage"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "matching.py")


def direct_verdicts(source: str) -> list[int]:
    """Line of each call of ``TriageVerdict(...)``, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "TriageVerdict"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "TriageVerdict"
        )
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_builds_verdicts_only_through_of(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert direct_verdicts(source) == []


def test_checker_finds_direct_calls_and_only_those():
    source = """
from . import matching
from .matching import TriageBasis, TriageVerdict

a = TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)
b = matching.TriageVerdict(Label.TRUE, TriageBasis.MATCHED_NONE)
c = TriageVerdict.of(0, 0)
d = matching.TriageVerdict.of(1, 0, ("id",))
e = TriageBasis.of(1, 1)
"""
    assert direct_verdicts(source) == [5, 6]
