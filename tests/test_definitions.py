"""Every function, class and method of the package is used somewhere."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cyclosum").glob("*.py"))
READERS = sorted({*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")})


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level function and class of `source`
    and of each method of those classes, dunder methods left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


class _References(ast.NodeVisitor):
    """The names `source` reads: names, attributes, imported names and the
    dotted parts of string constants (getattr targets, cache names), each
    left out inside a definition of the same name, so that a function's
    recursive calls do not count as uses."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _add(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(name)

    def _definition(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._inside.append(node.name)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self._add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    self._add(part)


def references(source: str) -> set[str]:
    visitor = _References()
    visitor.visit(ast.parse(source))
    return visitor.names


def test_unused_definitions_are_found():
    source = (
        "class A:\n    def used(self):\n        return self.used()\n    def __len__(self):\n        return 0\n"
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return getattr(A, 'used')\n"
    )
    assert definitions(source) == [("A", 1), ("used", 2), ("f", 6), ("g", 8)]
    assert references(source) == {"A", "getattr", "n", "self", "used"}


def test_every_package_definition_is_referenced():
    read: set[str] = set()
    for path in READERS:
        read |= references(path.read_text())
    checked = [(path, name, line) for path in PACKAGE for name, line in definitions(path.read_text())]
    assert len(checked) > 150
    assert [f"{path.name}:{line} {name}" for path, name, line in checked if name not in read] == []
