"""Every import and every module-level name in the package is used.

Standard-library stand-ins for pyflakes' unused-import check, over the
package, the tests and the demos: a name bound by an import counts as
used when it is read anywhere in the module, a module-level ``_private``
name when it is read in its module or imported by another module of the
package, and a public one when it is read in the package, the tests or
the demos.  The package's modules
also form layers (``LAYERS``), and each imports only from those below it.
"""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rampmerge"


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


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: p.name,
)
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


def module_level_names(tree: ast.Module) -> dict[str, int]:
    """Functions, classes and constants a module defines, with the line
    of each first definition; dunder names are left out."""
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
            if not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def unread_private_names(source: str, read_elsewhere: frozenset[str] = frozenset()) -> list[str]:
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}" for name, line in module_level_names(tree).items()
        if name.startswith("_") and name not in read and name not in read_elsewhere
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


def names_read(source: str) -> set[str]:
    """Names a module reads: loaded names, loaded attributes and the
    names it imports from other modules."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(source: str, read: frozenset[str]) -> list[str]:
    return [
        f"line {line}: {name}"
        for name, line in module_level_names(ast.parse(source)).items()
        if not name.startswith("_") and name not in read
    ]


@functools.cache
def _names_read_anywhere() -> frozenset[str]:
    read = set()
    for folder in (SRC, ROOT / "tests", ROOT / "demos"):
        for path in folder.glob("*.py"):
            read |= names_read(path.read_text())
    return frozenset(read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_public_names(path):
    assert unread_public_names(path.read_text(), _names_read_anywhere()) == []


def test_public_name_checker_flags_unread_definitions_only():
    source = (
        "from dataclasses import dataclass\n"
        "LIMIT = 3\n"
        "STALE = 4\n"
        "@dataclass\n"
        "class VehicleState:\n"
        "    speed: float = 0.0\n"
        "def scale(x):\n"
        "    return LIMIT * x\n"
        "def export():\n"
        "    return scale(2)\n"
    )
    reader = "import mod\nprint(mod.export())\n"
    read = frozenset(names_read(source) | names_read(reader))
    assert unread_public_names(source, read) == [
        "line 3: STALE", "line 5: VehicleState",
    ]


#: the package's modules, lowest layer first: each may import only the
#: modules before it
LAYERS = (
    "params", "vehicles", "statespace", "fuel", "idm",
    "tracking", "sequencing", "coordinator", "simulation", "cli",
)


def package_imports(source: str) -> set[str]:
    """Modules of the package that a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "rampmerge":
                    continue
                module = module.removeprefix("rampmerge").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import name, from rampmerge import name
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rampmerge."))
    return found


def layer_violations(module: str, source: str) -> list[str]:
    """The package modules ``module`` imports that are not below its layer."""
    below = LAYERS[:LAYERS.index(module)]
    return sorted(name for name in package_imports(source) if name not in below)


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    assert layer_violations(path.stem, path.read_text()) == []


def test_layer_checker_flags_upward_and_sideways_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .statespace import LtiModel\n"
        "from .sequencing import ScoringContext\n"
        "from . import tracking, params\n"
        "from rampmerge.cli import main\n"
        "from rampmerge import fuel, simulation\n"
        "import rampmerge.coordinator\n"
        "import rampmerger\n"
        "def late():\n"
        "    from .simulation import run_scenario\n"
    )
    assert layer_violations("tracking", source) == [
        "cli", "coordinator", "sequencing", "simulation", "tracking",
    ]
    assert layer_violations("cli", source) == ["cli"]
    assert layer_violations("params", "import numpy\nfrom dataclasses import field\n") == []
