"""Every name a package module imports or defines is used.

The import scan parses each ``src/ransomflow/*.py`` file with :mod:`ast`. A
name counts as used when it appears as a name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in the
module's ``__all__``, which re-exports it.

The definition scan lists each function, class and method those files
define, dunders excepted, and requires each name to occur as a word
somewhere besides its definition in the ``.py`` files under ``src/``,
``tests/`` or ``perfbench/``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ransomflow"
MODULES = sorted(PACKAGE.glob("*.py"))
SEARCHED = sorted(p for tree in ("src", "tests", "perfbench")
                  for p in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_names_and_counts_reexports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys\n"
              "import numpy as np\n"
              "from .errors import DataError, ShapeMismatch as Bad\n"
              "from .nn import Adam\n"
              "__all__ = ['Adam']\n"
              "def f(x: np.ndarray):\n"
              "    raise DataError(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (5, "Bad")]


def test_modules_are_found():
    assert {"cli.py", "dataset.py", "lstm.py", "nn.py"} <= {
        m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_uses_every_imported_name(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list:
    """Each function, class and method the source defines, but dunders."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_definitions(names, texts) -> list:
    """The names in ``names`` that occur as a word in ``texts`` no more
    often than they are defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, defined in Counter(names).items()
                  if words[name] <= defined)


def test_definition_scan_finds_names_used_nowhere_else():
    source = ("class Kept:\n"
              "    def __init__(self): pass\n"
              "    def lonely(self): pass\n"
              "def twice(): pass\n"
              "def twice(): pass\n"
              "def helper():\n"
              "    def inner(): pass\n"
              "    return Kept\n")
    names = defined_names(source)
    assert names == ["Kept", "twice", "twice", "helper", "lonely", "inner"]
    assert dead_definitions(names, [source, "helper()\n"]) == [
        "inner", "lonely", "twice"]


def test_every_defined_name_is_used_elsewhere():
    names = [name for module in MODULES
             for name in defined_names(module.read_text(encoding="utf-8"))]
    texts = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert dead_definitions(names, texts) == []
