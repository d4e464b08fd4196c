"""Every imported name is read somewhere in its module.

No linter is installed, so this AST scan stands in for one over src/rmlab
and tests.  A name a module re-exports through __all__ counts as read, and
an import statement marked `noqa` is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "rmlab").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa\nfrom math import pi, tau as t\n__all__ = ['pi']\n"
    assert unused_imports(source) == ["os", "t"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
