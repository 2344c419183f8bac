"""The integer elimination kernel stays behind ``linalg``: no other module of
``relconvex`` imports or reads ``rref_int``, so every Carathéodory question
goes through ``linalg.span_coordinates`` and its one rule for reading the
pivots.  ``lp`` pivots with ``bareiss_step``, which ``rref_int`` applies too."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relconvex"


def _names(tree: ast.Module) -> set[str]:
    """Every name the module reads or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_reads_the_elimination_kernel(path):
    assert "rref_int" not in _names(ast.parse(path.read_text()))

