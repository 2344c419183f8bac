"""Every public module-level name of ``relconvex`` (each name it exports, and
each public function, class and constant that a package module defines at
module level) has a caller outside the tests: in another package module, in
its own module outside its definition, in a demo, in
``perfbench/workloads.py`` or ``perfbench/run.py``, or in a python block of
README.md.  So does every public method and property of a class defined at
module level, read as an attribute outside its own definition (dunders and
dataclass fields are exempt).  Imports, strings, docstrings and comments do
not count as callers."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relconvex"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """The line span of each top-level statement that defines a name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        for name in names:
            out[name] = (node.lineno, node.end_lineno)
    return out


def _methods(tree: ast.Module) -> dict[str, list[tuple[str, int, int]]]:
    """(class, first line, last line) of each public method or property,
    by name, of the module's top-level classes."""
    out = defaultdict(list)
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    out[node.name].append((cls.name, node.lineno, node.end_lineno))
    return out


def _reads(tree: ast.Module) -> dict[str, list[int]]:
    """The lines where each name is read as a variable or an attribute;
    attribute reads are listed under ".name" as well."""
    out = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            out[node.attr].append(node.lineno)
            out["." + node.attr].append(node.lineno)
    return out


def _callers() -> list[tuple[str, dict, dict]]:
    """(where, reads, definitions) of every file that may hold a caller;
    definitions map each name to the line spans defining it, methods under
    ".name"."""
    files = MODULES + sorted((ROOT / "demos").glob("*.py"))
    files += [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "run.py"]
    trees = [(str(p.relative_to(ROOT)), ast.parse(p.read_text())) for p in files if p.is_file()]
    readme = (ROOT / "README.md").read_text()
    trees += [(f"README.md block {k}", ast.parse(block)) for k, block in
              enumerate(re.findall(r"```python\n(.*?)```", readme, re.S))]
    out = []
    for where, tree in trees:
        defs = {name: [span] for name, span in _definitions(tree).items()}
        for name, spans in _methods(tree).items():
            defs["." + name] = [(lo, hi) for _, lo, hi in spans]
        out.append((where, _reads(tree), defs))
    return out


CALLERS = _callers()


def _public_module_names() -> list[str]:
    return [f"{path.stem}.{name}" for path in MODULES
            for name in _definitions(ast.parse(path.read_text()))
            if not name.startswith("_")]


def _callers_of(name: str) -> list[str]:
    """Files that read name outside the statements defining it there."""
    found = []
    for where, reads, defs in CALLERS:
        spans = defs.get(name, ())
        if any(not any(lo <= line <= hi for lo, hi in spans) for line in reads.get(name, ())):
            found.append(where)
    return found


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_caller_outside_tests(name):
    assert _callers_of(name), f"relconvex.{name} is called only from tests"


@pytest.mark.parametrize("qualified", _public_module_names())
def test_public_module_name_has_a_caller_outside_tests(qualified):
    assert _callers_of(qualified.split(".")[1]), f"relconvex.{qualified} is called only from tests"


def _public_methods() -> list[str]:
    return [f"{path.stem}.{cls}.{name}" for path in MODULES
            for name, spans in _methods(ast.parse(path.read_text())).items()
            for cls, _, _ in spans]


@pytest.mark.parametrize("qualified", _public_methods())
def test_public_method_has_a_caller_outside_tests(qualified):
    assert _callers_of("." + qualified.rsplit(".", 1)[1]), \
        f"relconvex.{qualified} is called only from tests"
