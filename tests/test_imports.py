"""Tooling: no module of the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "pqaka").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads. An import on a line marked
    `# noqa: F401` (imported for its side effect) and a name listed in
    __all__ count as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_no_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_name_and_honours_its_exemptions():
    source = ("from typing import Callable, Optional\n"
              "from . import backends  # noqa: F401\n"
              "import os.path\n"
              "__all__ = ['Callable']\n"
              "x = os.sep\n")
    assert unused_imports(source) == ["Optional (line 1)"]
