"""Every name that ``relconvex`` exports has a caller outside the tests: in
another package module, in its own module outside its definition, in a demo,
in ``perfbench/workloads.py`` or ``perfbench/run.py``, or in a python block
of README.md.  Imports, strings, docstrings and comments do not count as
callers."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relconvex"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _definition(tree: ast.Module, name: str):
    """The top-level statement of the module that defines name, or None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _uses(tree: ast.Module, name: str, skip=None) -> bool:
    """name is read as a variable or an attribute somewhere in tree, outside
    the lines of the statement skip."""
    lo, hi = (skip.lineno, skip.end_lineno) if skip is not None else (0, -1)
    return any((isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
               and not lo <= node.lineno <= hi
               for node in ast.walk(tree))


def _callers() -> list[tuple[str, ast.Module]]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "run.py"]
    out = [(str(p.relative_to(ROOT)), ast.parse(p.read_text())) for p in files if p.is_file()]
    readme = (ROOT / "README.md").read_text()
    out += [(f"README.md block {k}", ast.parse(block)) for k, block in
            enumerate(re.findall(r"```python\n(.*?)```", readme, re.S))]
    return out


CALLERS = _callers()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_caller_outside_tests(name):
    found = [where for where, tree in CALLERS
             if _uses(tree, name, skip=_definition(tree, name))]
    assert found, f"relconvex.{name} is called only from tests"
