"""Every import and every module-level private name in the package is used.

Standard-library stand-ins for pyflakes' unused-import check: a name
bound by an import counts as used when it is read anywhere in the
module, and a module-level ``_private`` name when it is read in its
module or imported by another module of the package.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rampmerge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "print(np.pi, pi)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: tau"]


def unread_private_names(source: str, read_elsewhere: frozenset[str] = frozenset()) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}" for name, line in defined.items()
        if name not in read and name not in read_elsewhere
    ]


def _package_imports() -> frozenset[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return frozenset(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(), _package_imports()) == []


def test_private_name_checker_flags_orphans_only():
    source = (
        "_TABLE = {1: 'a'}\n"
        "_BY_VALUE = {v: k for k, v in _TABLE.items()}\n"
        "_shared: int = 3\n"
        "__all__ = ['lookup']\n"
        "def _helper():\n"
        "    return 1\n"
        "class _Orphan:\n"
        "    pass\n"
        "def lookup(key):\n"
        "    _local = _TABLE[key]\n"
        "    return _local + str(_helper())\n"
    )
    assert unread_private_names(source, frozenset({"_shared"})) == [
        "line 2: _BY_VALUE", "line 7: _Orphan",
    ]
