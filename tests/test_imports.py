"""Every module of the package and of the tests reads each name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "cyclosum").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads.  A name listed in
    __all__ counts as read; __future__ imports are skipped."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, os.path as p\nfrom a import b, c as d\n__all__ = ['d']\nb()\n"
    assert unused_imports(source) == ["os (line 2)", "p (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
