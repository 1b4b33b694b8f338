"""Every module-level import in ``src/uidforge`` is used by its module,
and importing the CLI loads no module it only needs on some paths.

Names are collected with the standard library's ``ast``: an import is
used when its bound name appears anywhere in the module's code (quoted
annotations are not parsed). ``__init__.py`` re-exports by design and
is skipped, as are ``from __future__`` imports and lines marked
``# noqa: F401``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uidforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list) -> dict:
    """Bound name -> line number of each module-level import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    }
    assert unused == {}, f"{path.name}: unused imports (name: line) {unused}"


def test_cli_import_leaves_multiprocessing_unloaded():
    # the writer imports multiprocessing only when it forks workers;
    # loaded by every command, it would cost each about 13 ms
    probe = "import sys, uidforge.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
