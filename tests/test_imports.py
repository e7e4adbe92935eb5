"""Every name a package module imports is used in that module.

The scan parses each ``src/ransomflow/*.py`` file with :mod:`ast`. A name
counts as used when it appears as a name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in the
module's ``__all__``, which re-exports it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ransomflow"
MODULES = sorted(PACKAGE.glob("*.py"))


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
