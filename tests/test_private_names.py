"""Every private function or class of the package is used by the package
itself, so a helper that only the tests still call shows up as dead code
once its last caller in the package goes."""

import ast
import pathlib

import nclp

SOURCES = sorted(pathlib.Path(nclp.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


class _Walker(ast.NodeVisitor):
    """The private functions, methods and classes a module defines, and the
    names it reads (as a name or an attribute) outside their own bodies."""

    def __init__(self) -> None:
        self.defined: list[tuple[str, int]] = []
        self.used: set[str] = set()
        self.scope: list[str] = []

    def _define(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> None:
        if _is_private(node.name):
            self.defined.append((node.name, node.lineno))
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, name: str) -> None:
        if name not in self.scope:              # a recursive call is no use
            self.used.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)


def _unused_private(paths: list[pathlib.Path]) -> list[str]:
    """``file:line: name`` of each private definition in ``paths`` that no
    file in ``paths`` reads."""
    defined, used = [], set()
    for path in paths:
        walker = _Walker()
        walker.visit(ast.parse(path.read_text(encoding="utf-8")))
        defined += [(path.name, line, name) for name, line in walker.defined]
        used |= walker.used
    return [f"{file}:{line}: {name}" for file, line, name in defined if name not in used]


def test_every_private_definition_is_used_by_the_package():
    assert _unused_private(SOURCES) == []


def test_the_walker_sees_each_use(tmp_path):
    (tmp_path / "a.py").write_text("def _dead(n):\n"
                                   "    return _dead(n - 1)\n"
                                   "def _called():\n"
                                   "    pass\n"
                                   "class _Unused:\n"
                                   "    def _method(self):\n"
                                   "        pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import _called\n"
                                   "def run(obj):\n"
                                   "    _called()\n"
                                   "    return obj._method\n", encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unused_private(paths) == ["a.py:1: _dead", "a.py:5: _Unused"]
