"""No module of the package keeps hidden global state in a function cache,
so a result cannot depend on which calls ran before it, and the order of
the tests cannot move one."""

import ast
import pathlib

import pytest

import nclp

CACHES = {"lru_cache", "cache"}
SOURCES = sorted(pathlib.Path(nclp.__file__).parent.glob("*.py"))


def _cache_uses(path: pathlib.Path) -> list[str]:
    """``functools.lru_cache`` and ``functools.cache`` in a source file,
    spelled through the module or imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hits += [f"{path.name}:{node.lineno}: from functools import {alias.name}"
                     for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            hits.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    return hits


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_caches(path):
    assert _cache_uses(path) == []


def test_the_walker_sees_each_spelling(tmp_path):
    path = tmp_path / "cached.py"
    path.write_text("import functools\n"
                    "from functools import cache, cached_property, lru_cache\n"
                    "@functools.lru_cache(maxsize=1)\n"
                    "def f(): pass\n"
                    "@functools.cache\n"
                    "def g(): pass\n", encoding="utf-8")
    assert sorted(_cache_uses(path)) == ["cached.py:2: from functools import cache",
                                 "cached.py:2: from functools import lru_cache",
                                 "cached.py:3: functools.lru_cache",
                                 "cached.py:5: functools.cache"]
