"""Rules on the package source that no behaviour test would catch.

``python -O`` strips ``assert`` statements, so a check written as one
silently disappears; and no float may enter the exact computation.  The
one float allowed is the approximate slope column of the pretty slope
table, in ``cli._slope_rows_text``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bnslopes"
SOURCES = sorted(SRC.glob("*.py"))
FLOAT_ALLOWED = {("cli", "_slope_rows_text")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _float_calls(tree: ast.Module):
    """(innermost enclosing function or None, line) of each call to float."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_float_only_in_slope_display(path):
    calls = _float_calls(_tree(path))
    stray = [(owner, line) for owner, line in calls if (path.stem, owner) not in FLOAT_ALLOWED]
    assert not stray, f"{path.name}: float called at {stray}"


def test_allowed_float_is_seen():
    # keeps the allowance from going stale and the visitor from going blind
    assert [owner for owner, _ in _float_calls(_tree(SRC / "cli.py"))] == ["_slope_rows_text"]
